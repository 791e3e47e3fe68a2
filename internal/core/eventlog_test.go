package core_test

import (
	"testing"

	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
)

// TestEventLogCapturesExecution proves an enabled log attached to a real
// block execution captures a well-formed schedule: every committed
// transaction has exactly one dispatch and one commit per winning
// incarnation, the log is HB-consistent (a commit never precedes its own
// dispatch), and stamps are dense with non-decreasing timestamps.
func TestEventLogCapturesExecution(t *testing.T) {
	txs := benchTxs()
	db, reg := fixture(t)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutor(reg, 4)
	events := eventlog.New()
	events.Enable()
	ex.SetLog(events)
	if _, err := ex.ExecuteBlock(db, blk, txs, csags); err != nil {
		t.Fatal(err)
	}
	b := events.Block(int64(blk.Number))
	if b == nil || len(b.Events) == 0 {
		t.Fatal("enabled log captured nothing")
	}
	if b.Txs != len(txs) {
		t.Fatalf("block record says %d txs, want %d", b.Txs, len(txs))
	}
	dispatched := map[[2]int32]bool{}
	commits := map[int32]int{}
	var lastTS int64
	for i, e := range b.Events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d stamped Seq %d, want dense order", i, e.Seq)
		}
		if e.TS < lastTS {
			t.Fatalf("event %d timestamp %d precedes its predecessor's %d", i, e.TS, lastTS)
		}
		lastTS = e.TS
		switch e.Op {
		case eventlog.OpDispatch:
			if e.Worker < 0 {
				t.Fatalf("dispatch without a worker: %+v", e)
			}
			dispatched[[2]int32{e.Tx, e.Inc}] = true
		case eventlog.OpCommit:
			if !dispatched[[2]int32{e.Tx, e.Inc}] {
				t.Fatalf("tx %d inc %d committed before its dispatch was recorded", e.Tx, e.Inc)
			}
			commits[e.Tx]++
		}
	}
	for i := range txs {
		if commits[int32(i)] != 1 {
			t.Fatalf("tx %d has %d recorded commits, want exactly 1", i, commits[int32(i)])
		}
	}
}

// TestDisabledLogRecordsNothing pins the guard discipline: an attached but
// disabled log sees no block, no event and no audit.
func TestDisabledLogRecordsNothing(t *testing.T) {
	txs := benchTxs()
	db, reg := fixture(t)
	ex := core.NewExecutor(reg, 4)
	events := eventlog.New()
	ex.SetLog(events)
	if _, err := ex.ExecuteBlock(db, blk, txs, nil); err != nil {
		t.Fatal(err)
	}
	if got := events.Blocks(); len(got) != 0 {
		t.Fatalf("disabled log recorded %d blocks", len(got))
	}
}
