package telemetry

import (
	"strings"
	"testing"

	"dmvcc/internal/eventlog"
)

// abortHeavyTrace builds a block-1 schedule where the critical transaction
// aborts once and commits on its second incarnation, with each incarnation
// parking on the same item at different times:
//
//	tx0/inc0: dispatch@0 ............ publish A@40, commit@60
//	tx1/inc0: dispatch@5, park A@10, aborted@20        (discarded)
//	tx1/inc1: dispatch@25, park A@30, resume@55, commit@100
//
// The chain bounding the makespan must route through the committed
// incarnation (inc1): its wait is 55-30=25, not the discarded inc0's
// 55-10=45, and its running time is (30-25)+(100-55)=50.
func abortHeavyTrace() *eventlog.Block {
	item := testItem()
	return &eventlog.Block{Number: 1, Txs: 2, Events: []eventlog.Event{
		{TS: 0, Op: eventlog.OpDispatch, Tx: 0, Inc: 0, Worker: 0, Src: -1},
		{TS: 5, Op: eventlog.OpDispatch, Tx: 1, Inc: 0, Worker: 1, Src: -1},
		{TS: 10, Op: eventlog.OpPark, Tx: 1, Inc: 0, Worker: 1, Item: item, Src: 0},
		{TS: 20, Op: eventlog.OpAbort, Tx: 1, Inc: 0, Worker: 1, Item: item, Src: 0},
		{TS: 25, Op: eventlog.OpDispatch, Tx: 1, Inc: 1, Worker: 1, Src: -1},
		{TS: 30, Op: eventlog.OpPark, Tx: 1, Inc: 1, Worker: 1, Item: item, Src: 0},
		{TS: 40, Op: eventlog.OpPublish, Early: true, Tx: 0, Inc: 0, Worker: 0, Item: item, Src: -1},
		{TS: 55, Op: eventlog.OpResume, Tx: 1, Inc: 1, Worker: 1, Item: item, Src: 0},
		{TS: 60, Op: eventlog.OpCommit, Tx: 0, Inc: 0, Worker: 0, Src: -1},
		{TS: 100, Op: eventlog.OpCommit, Tx: 1, Inc: 1, Worker: 1, Src: -1},
	}}
}

func TestCriticalPathRoutesThroughFinalIncarnation(t *testing.T) {
	cp := BlockCriticalPath(abortHeavyTrace())
	if cp == nil {
		t.Fatal("no critical path")
	}
	if cp.MakespanNs != 100 {
		t.Fatalf("makespan = %d, want 100", cp.MakespanNs)
	}
	if len(cp.Hops) != 2 || cp.Hops[0].Tx != 0 || cp.Hops[1].Tx != 1 {
		t.Fatalf("chain = %+v, want tx0 -> tx1", cp.Hops)
	}
	last := cp.Hops[1]
	if last.BlockedOn != 0 {
		t.Fatalf("tx1 blocked on tx%d, want tx0", last.BlockedOn)
	}
	// The wait must be measured from the final incarnation's park (ts=30),
	// not the aborted incarnation's park (ts=10): 55-30, not 55-10.
	if last.WaitNs != 25 {
		t.Fatalf("tx1 wait = %d, want 25 (final incarnation's park->resume)", last.WaitNs)
	}
	// Running time likewise accumulates only over inc1's running stretches.
	if last.RunNs != 50 {
		t.Fatalf("tx1 run = %d, want 50 (dispatch->park + resume->commit of inc1)", last.RunNs)
	}
	if root := cp.Hops[0]; root.WaitNs != 0 || root.RunNs != 60 {
		t.Fatalf("tx0 hop = %+v, want no wait, 60ns run", root)
	}
	if !strings.Contains(cp.Render(), "tx1") {
		t.Fatal("render does not mention the chain txs")
	}
}
