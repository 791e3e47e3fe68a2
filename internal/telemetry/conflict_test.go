package telemetry

import (
	"encoding/json"
	"testing"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
)

func fxItem(b byte) sag.ItemID {
	return sag.BalanceItem(types.Address{0: 0xaa, 19: b})
}

// access is one item-traffic event of tx 0.
func access(op eventlog.Op, id sag.ItemID, early bool) eventlog.Event {
	return eventlog.Event{Op: op, Early: early, Worker: -1, Src: -1, Item: id}
}

// abortEv is one abort event with its forensic detail.
func abortEv(tx, inc, cascade, parent, cause int, id sag.ItemID, readSrc int, class eventlog.AbortClass, gas uint64) eventlog.Event {
	return eventlog.Event{
		Op: eventlog.OpAbort, Tx: int32(tx), Inc: int32(inc), Worker: -1, Src: int32(cause), Item: id, Gas: gas,
		Abort: &eventlog.AbortInfo{Class: class, Cascade: int32(cascade), Parent: int32(parent), ReadSrc: int32(readSrc)},
	}
}

func wastedEv(tx, inc int, gas uint64) eventlog.Event {
	return eventlog.Event{Op: eventlog.OpWasted, Tx: int32(tx), Inc: int32(inc), Worker: -1, Src: -1, Gas: gas}
}

func TestPostMortemUnrecordedBlock(t *testing.T) {
	if BlockPostMortem(nil) != nil {
		t.Fatal("unrecorded block produced a post-mortem")
	}
	var nilLog *eventlog.Log
	if BlockPostMortem(nilLog.Block(1)) != nil {
		t.Fatal("nil log produced a post-mortem")
	}
}

func TestProfilesAndHotKeyRanking(t *testing.T) {
	cold, hot := fxItem(1), fxItem(2)
	// cold: many plain accesses, no aborts. hot: fewer accesses, one abort.
	var events []eventlog.Event
	for i := 0; i < 10; i++ {
		events = append(events, access(eventlog.OpRead, cold, false))
	}
	events = append(events,
		access(eventlog.OpPublish, cold, false),
		access(eventlog.OpDelta, cold, true), // early deltas are not early *writes*
		access(eventlog.OpRead, hot, false),
		access(eventlog.OpPark, hot, false),
		access(eventlog.OpResume, hot, false),
		access(eventlog.OpPublish, hot, true),
		access(eventlog.OpDrop, fxItem(3), false), // drops are not traffic
		abortEv(1, 0, 0, -1, 0, hot, -1, eventlog.AbortUnpredictedWrite, 0),
	)

	pm := BlockPostMortem(&eventlog.Block{Number: 3, Txs: 4, Events: events})
	if pm == nil {
		t.Fatal("no post-mortem")
	}
	if pm.Block != 3 || pm.Txs != 4 {
		t.Fatalf("post-mortem header = block %d / %d txs", pm.Block, pm.Txs)
	}
	if pm.TotalItems != 2 || len(pm.HotKeys) != 2 {
		t.Fatalf("items = %d / hot keys = %d, want 2/2", pm.TotalItems, len(pm.HotKeys))
	}
	// Aborts outrank raw access volume.
	if pm.HotKeys[0].Item != hot.Label() {
		t.Fatalf("top hot key = %s, want the aborting item %s", pm.HotKeys[0].Item, hot.Label())
	}
	top := pm.HotKeys[0]
	if top.Reads != 1 || top.BlockedReads != 1 || top.Writes != 1 || top.EarlyPublishes != 1 || top.Aborts != 1 {
		t.Fatalf("hot profile = %+v", top.ItemProfile)
	}
	second := pm.HotKeys[1]
	if second.Reads != 10 || second.Writes != 1 || second.EarlyPublishes != 0 || second.DeltaMerges != 1 || second.Aborts != 0 {
		t.Fatalf("cold profile = %+v", second.ItemProfile)
	}
}

// TestWastedGasOrdering pins the join between the aborter's abort event and
// the dying incarnation's wasted event: the wasted gas lands on the record
// regardless of which was stamped first.
func TestWastedGasOrdering(t *testing.T) {
	events := []eventlog.Event{
		// Incarnation reports its wasted work before the abort lands.
		wastedEv(2, 0, 100),
		abortEv(2, 0, 0, -1, 1, fxItem(1), -1, eventlog.AbortUnpredictedWrite, 7),
		// And the opposite order for a different incarnation.
		abortEv(3, 0, 1, -1, 1, fxItem(1), -1, eventlog.AbortStaleVersion, 0),
		wastedEv(3, 0, 50),
		// A later incarnation of the same tx keeps its own account.
		wastedEv(3, 1, 9),
	}
	recs := AbortRecords(events)
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].WastedGas != 107 {
		t.Fatalf("wasted-before-abort = %d, want 107", recs[0].WastedGas)
	}
	if recs[1].WastedGas != 50 {
		t.Fatalf("wasted-after-abort = %d, want 50", recs[1].WastedGas)
	}
	if recs[0].Seq != 0 || recs[1].Seq != 1 {
		t.Fatalf("record seqs = %d,%d, want abort order", recs[0].Seq, recs[1].Seq)
	}
	if pm := BlockPostMortem(&eventlog.Block{Number: 1, Events: events}); pm.WastedGas != 157 {
		t.Fatalf("post-mortem wasted = %d, want 157", pm.WastedGas)
	}
}

func TestCascadeTrees(t *testing.T) {
	item := fxItem(4)
	events := []eventlog.Event{
		// Root victim tx3, whose dropped versions cascade into tx5, then tx6.
		abortEv(3, 0, 0, -1, 1, item, 1, eventlog.AbortUnpredictedWrite, 10),
		abortEv(5, 0, 0, 3, 3, item, 3, eventlog.AbortCascade, 20),
		abortEv(6, 0, 0, 5, 5, item, 5, eventlog.AbortCascade, 30),
		// An unrelated single-victim cascade.
		abortEv(7, 1, 1, -1, 2, fxItem(5), -1, eventlog.AbortSnapshotStale, 5),
	}
	pm := BlockPostMortem(&eventlog.Block{Number: 2, Txs: 8, Events: events})
	if pm.Aborts != 4 || len(pm.Cascades) != 2 {
		t.Fatalf("aborts = %d cascades = %d, want 4/2", pm.Aborts, len(pm.Cascades))
	}
	tree := pm.Cascades[0]
	if tree.CauseTx != 1 || tree.Aborts != 3 || tree.Depth != 3 || tree.WastedGas != 60 {
		t.Fatalf("cascade 0 = %+v", tree)
	}
	if tree.Root.Tx != 3 || len(tree.Root.Children) != 1 ||
		tree.Root.Children[0].Tx != 5 || tree.Root.Children[0].Children[0].Tx != 6 {
		t.Fatal("cascade 0 tree does not chain tx3 -> tx5 -> tx6")
	}
	if pm.Cascades[1].Aborts != 1 || pm.Cascades[1].Root.Tx != 7 {
		t.Fatalf("cascade 1 = %+v", pm.Cascades[1])
	}
	if pm.AbortClasses["cascade"] != 2 || pm.AbortClasses["unpredicted_write"] != 1 ||
		pm.AbortClasses["snapshot_stale"] != 1 {
		t.Fatalf("class histogram = %v", pm.AbortClasses)
	}

	// The JSON form round-trips, including the text-marshalled classes.
	data, err := json.Marshal(pm)
	if err != nil {
		t.Fatal(err)
	}
	var back PostMortem
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Cascades[0].Root.Children[0].Class != eventlog.AbortCascade {
		t.Fatalf("class did not round-trip: %v", back.Cascades[0].Root.Children[0].Class)
	}
}

// TestReportsAttachToTheirBlock pins that block-level reports (the audit,
// stall dumps, the degradation mark) land on the block they describe and
// surface in its post-mortem — not on whichever block is current.
func TestReportsAttachToTheirBlock(t *testing.T) {
	lg := eventlog.New()
	lg.Enable()
	lg.Begin(1, 2)
	lg.SetDegraded(1, "breaker")
	lg.Begin(2, 2) // register moved on
	lg.AddReport(1, &BlockAudit{Block: 1, Txs: 2})
	lg.AddReport(1, StallReport{Block: 1, Attempt: 1})
	lg.AddReport(9, StallReport{Block: 9}) // unrecorded block: dropped

	pm := BlockPostMortem(lg.Block(1))
	if pm.Audit == nil || pm.Audit.Block != 1 || pm.Stalls != 1 || pm.Degraded != "breaker" {
		t.Fatalf("block 1 post-mortem = audit %+v, %d stalls, degraded %q", pm.Audit, pm.Stalls, pm.Degraded)
	}
	pm = BlockPostMortem(lg.Block(2))
	if pm.Audit != nil || pm.Stalls != 0 || pm.Degraded != "" {
		t.Fatalf("block 2 unexpectedly carries block 1's reports: %+v", pm)
	}
	if lg.Block(9) != nil {
		t.Fatal("a report created a block record")
	}
}
