package telemetry

import (
	"strings"
	"testing"

	"dmvcc/internal/eventlog"
)

func TestStallReportRender(t *testing.T) {
	rep := StallReport{
		Block: 7, Attempt: 2, Progress: 41,
		Running: 3, ReadyTasks: 1, Resumers: 2, IdleWorkers: 5,
		Pending: []StallTx{{Tx: 4, Inc: 1}, {Tx: 9, Inc: 0}},
		Waiters: []StallWaiter{{Item: "acct:0xab/bal", ReaderTx: 4, BlockedOn: 2}},
	}
	out := rep.Render()
	for _, want := range []string{
		"stall in block 7 (attempt 2)",
		"progress=41 running=3 ready=1 resumers=2 idle=5",
		"unfinished: tx4/inc1 tx9/inc0",
		"tx4 parked on acct:0xab/bal behind tx2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestStallReportRenderEmpty(t *testing.T) {
	// No pending/waiters: the header renders alone, with no stray sections.
	out := (&StallReport{Block: 1, Attempt: 1}).Render()
	if strings.Contains(out, "unfinished") || strings.Contains(out, "parked") {
		t.Fatalf("empty report grew sections:\n%s", out)
	}
	if lines := strings.Count(out, "\n"); lines != 1 {
		t.Fatalf("want single line, got %d:\n%s", lines, out)
	}
}

func TestStallsSequencing(t *testing.T) {
	lg := eventlog.New()
	lg.Enable()
	lg.Begin(3, 1)
	lg.AddReport(3, StallReport{Block: 3, Attempt: 1})
	lg.AddReport(3, &BlockAudit{Block: 3}) // other report kinds are skipped
	lg.AddReport(3, StallReport{Block: 3, Attempt: 2})
	got := Stalls(lg.Block(3))
	if len(got) != 2 {
		t.Fatalf("stalls = %+v", got)
	}
	for i, rep := range got {
		if rep.Seq != i || rep.Attempt != i+1 {
			t.Fatalf("stall %d has seq %d attempt %d", i, rep.Seq, rep.Attempt)
		}
		if rep.Schema != StallSchema {
			t.Fatalf("stall %d schema %q", i, rep.Schema)
		}
	}
	if Stalls(lg.Block(99)) != nil {
		t.Fatal("unknown block returned stalls")
	}
}
