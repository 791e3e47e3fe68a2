package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

func testItem() sag.ItemID {
	return sag.StorageItem(types.HexToAddress("0xc000000000000000000000000000000000000001"), types.Hash{0x01})
}

// blockLog opens block 1 on a fresh enabled log and returns it with an
// appender for incarnation-0 events.
func blockLog() (*eventlog.Log, func(op eventlog.Op, tx, worker int, it sag.ItemID, src int)) {
	lg := eventlog.New()
	lg.Enable()
	lg.Begin(1, 2)
	return lg, func(op eventlog.Op, tx, worker int, it sag.ItemID, src int) {
		lg.Record(op, tx, 0, worker, src, it, u256.Int{})
	}
}

// syntheticLog builds a two-worker block-1 schedule: tx0 dispatches on
// worker 0, publishes the contended item, and commits; tx1 dispatches on
// worker 1, parks on tx0's pending version, resumes after the publish, and
// commits.
func syntheticLog() *eventlog.Log {
	item := testItem()
	lg, emit := blockLog()
	emit(eventlog.OpDispatch, 0, 0, sag.ItemID{}, -1)
	emit(eventlog.OpDispatch, 1, 1, sag.ItemID{}, -1)
	emit(eventlog.OpPark, 1, 1, item, 0)
	emit(eventlog.OpPublish, 0, 0, item, -1)
	emit(eventlog.OpResume, 1, 1, item, 0)
	emit(eventlog.OpCommit, 0, 0, sag.ItemID{}, -1)
	emit(eventlog.OpCommit, 1, 1, sag.ItemID{}, -1)
	return lg
}

// syntheticLedger holds one execution-stage interval for block 1.
func syntheticLedger() *StageLedger {
	l := NewStageLedger()
	l.Enable()
	l.Enter(StageExecution, 1)
	l.Exit(StageExecution, 1)
	return l
}

func exportChrome(t *testing.T, lg *eventlog.Log, ledger *StageLedger) chromeFile {
	t.Helper()
	var buf bytes.Buffer
	if err := ExportChrome(&buf, lg, ledger); err != nil {
		t.Fatal(err)
	}
	var cf chromeFile
	if err := json.Unmarshal(buf.Bytes(), &cf); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	return cf
}

func TestExportChromeLayout(t *testing.T) {
	cf := exportChrome(t, syntheticLog(), syntheticLedger())
	if len(cf.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	phases := map[string]int{}
	workerTracks := map[int64]string{}
	var slices, pipelineSlices int
	for _, ev := range cf.TraceEvents {
		phases[ev.Ph]++
		if ev.Ph == "M" && ev.Name == "thread_name" && ev.Pid == blockPid(1) {
			workerTracks[ev.Tid] = ev.Args["name"].(string)
		}
		if ev.Ph == "X" {
			if ev.Pid == blockPid(1) {
				slices++
				if ev.Dur < 0 {
					t.Fatalf("negative slice duration: %+v", ev)
				}
			}
			if ev.Pid == pipelinePid {
				pipelineSlices++
			}
		}
	}
	// One thread track per worker.
	if len(workerTracks) != 2 || workerTracks[0] != "worker 0" || workerTracks[1] != "worker 1" {
		t.Fatalf("worker tracks = %v, want workers 0 and 1", workerTracks)
	}
	// tx0 runs once; tx1 runs dispatch→park and resume→commit: 3 slices.
	if slices != 3 {
		t.Fatalf("scheduler slices = %d, want 3", slices)
	}
	if pipelineSlices != 1 {
		t.Fatalf("pipeline slices = %d, want 1", pipelineSlices)
	}
	// The publish→resume dependency renders as one flow-arrow pair.
	if phases["s"] != 1 || phases["f"] != 1 {
		t.Fatalf("flow events s=%d f=%d, want one pair", phases["s"], phases["f"])
	}
	// Metadata sorts before all timed events.
	sawTimed := false
	for _, ev := range cf.TraceEvents {
		if ev.Ph != "M" {
			sawTimed = true
		} else if sawTimed {
			t.Fatal("metadata event after a timed event")
		}
	}
}

func TestExportChromeEmptyTrace(t *testing.T) {
	for _, lg := range []*eventlog.Log{nil, eventlog.New()} {
		if cf := exportChrome(t, lg, nil); len(cf.TraceEvents) != 0 {
			t.Fatalf("empty log produced %d events", len(cf.TraceEvents))
		}
	}
	cf := exportChrome(t, eventlog.New(), NewStageLedger())
	if len(cf.TraceEvents) != 0 {
		t.Fatalf("empty trace produced %d events", len(cf.TraceEvents))
	}
}

func TestExportChromeTruncatedSlice(t *testing.T) {
	// A dispatch with a later park-only event but no closing commit/abort
	// must still render a visible residue slice.
	lg, emit := blockLog()
	emit(eventlog.OpDispatch, 0, 0, sag.ItemID{}, -1)
	emit(eventlog.OpPublish, 0, 0, testItem(), -1)
	cf := exportChrome(t, lg, nil)
	found := false
	for _, ev := range cf.TraceEvents {
		if ev.Ph == "X" && ev.Args["end"] == "truncated" {
			found = true
		}
	}
	if !found {
		t.Fatal("no truncated residue slice for the open incarnation")
	}
}

func TestCriticalPathSyntheticChain(t *testing.T) {
	cp := BlockCriticalPath(syntheticLog().Block(1))
	if cp == nil {
		t.Fatal("nil critical path for a trace with commits")
	}
	if cp.Block != 1 {
		t.Fatalf("block = %d", cp.Block)
	}
	// tx1 committed last after waiting on tx0: the chain is tx0 → tx1.
	if len(cp.Hops) != 2 {
		t.Fatalf("hops = %+v, want 2", cp.Hops)
	}
	if cp.Hops[0].Tx != 0 || cp.Hops[1].Tx != 1 {
		t.Fatalf("chain order = [%d %d], want [0 1]", cp.Hops[0].Tx, cp.Hops[1].Tx)
	}
	if cp.Hops[0].WaitNs != 0 {
		t.Fatalf("chain root waited %dns, want 0", cp.Hops[0].WaitNs)
	}
	last := cp.Hops[1]
	if last.WaitNs <= 0 || last.BlockedOn != 0 || last.Item == "" {
		t.Fatalf("dependent hop = %+v, want positive wait on tx0's item", last)
	}
	if cp.MakespanNs <= 0 || cp.PathNs <= 0 {
		t.Fatalf("makespan/path = %d/%d", cp.MakespanNs, cp.PathNs)
	}
	if cp.PathNs > cp.MakespanNs {
		t.Fatalf("path %d exceeds makespan %d: chain span must not double-count overlapping waits", cp.PathNs, cp.MakespanNs)
	}
	if got := cp.Render(); got == "" {
		t.Fatal("empty render")
	}
}

func TestCriticalPathNoCommits(t *testing.T) {
	lg, emit := blockLog()
	emit(eventlog.OpDispatch, 0, 0, sag.ItemID{}, -1)
	if cp := BlockCriticalPath(lg.Block(1)); cp != nil {
		t.Fatalf("critical path without commits = %+v, want nil", cp)
	}
	if cp := BlockCriticalPath(lg.Block(2)); cp != nil {
		t.Fatalf("critical path of an unrecorded block = %+v, want nil", cp)
	}
	// Render of a nil path must not panic.
	var nilPath *CriticalPath
	if nilPath.Render() == "" {
		t.Fatal("nil render empty")
	}
}

func TestCriticalPathCycleGuard(t *testing.T) {
	// Mutual waits (possible with re-incarnations sharing tx numbers) must
	// not loop the backward walk forever.
	item := testItem()
	lg, emit := blockLog()
	emit(eventlog.OpDispatch, 0, 0, sag.ItemID{}, -1)
	emit(eventlog.OpDispatch, 1, 1, sag.ItemID{}, -1)
	emit(eventlog.OpPark, 0, 0, item, 1)
	emit(eventlog.OpPark, 1, 1, item, 0)
	emit(eventlog.OpPublish, 0, 0, item, -1)
	emit(eventlog.OpPublish, 1, 1, item, -1)
	emit(eventlog.OpResume, 0, 0, item, 1)
	emit(eventlog.OpResume, 1, 1, item, 0)
	emit(eventlog.OpCommit, 0, 0, sag.ItemID{}, -1)
	emit(eventlog.OpCommit, 1, 1, sag.ItemID{}, -1)
	done := make(chan *CriticalPath, 1)
	go func() { done <- BlockCriticalPath(lg.Block(1)) }()
	select {
	case cp := <-done:
		if cp == nil || len(cp.Hops) == 0 {
			t.Fatalf("cycle guard returned %+v", cp)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("critical-path walk did not terminate on a wait cycle")
	}
}
