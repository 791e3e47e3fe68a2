package core_test

import (
	"runtime"
	"testing"

	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// TestForensicsExplainsEveryAbort runs the unpredicted-write cascade workload
// with the event log attached and checks the accounting contract end
// to end: every abort the scheduler counts has exactly one structured record,
// every record is fully classified, the cascade trees partition the records,
// and the wasted gas attributed to records equals the executor's total.
func TestForensicsExplainsEveryAbort(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	txs := []*types.Transaction{
		call(user(0), indirAddr, 0, "setKey", u256.NewUint64(1), u256.NewUint64(5)),
		call(user(1), indirAddr, 0, "writeAt", u256.NewUint64(1), u256.NewUint64(42)),
	}
	for i := 0; i < 32; i++ {
		txs = append(txs, call(user(2+i%60), indirAddr, 0, "copyTo",
			u256.NewUint64(uint64(5+i)), u256.NewUint64(uint64(6+i))))
	}
	for attempt := 0; attempt < 20; attempt++ {
		db, reg := fixture(t)
		an := sag.NewAnalyzer(reg)
		csags, err := an.AnalyzeBlock(txs, db, blk)
		if err != nil {
			t.Fatal(err)
		}
		events := eventlog.New()
		events.Enable()
		ex := core.NewExecutor(reg, 16)
		ex.SetLog(events)
		res, err := ex.ExecuteBlock(db, blk, txs, csags)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Aborts == 0 {
			continue // lucky schedule; retry for a contended one
		}

		record := events.Block(int64(blk.Number))
		recs := telemetry.AbortRecords(record.Events)
		if int64(len(recs)) != res.Stats.Aborts {
			t.Fatalf("%d abort records != %d scheduler aborts", len(recs), res.Stats.Aborts)
		}
		var recWasted uint64
		for _, r := range recs {
			if r.Class.String() == "unknown" {
				t.Fatalf("unclassified abort record: %+v", r)
			}
			if r.ItemLabel == "" {
				t.Fatalf("abort record without item label: %+v", r)
			}
			if r.CauseTx < 0 || r.CauseTx >= len(txs) {
				t.Fatalf("abort record with out-of-range cause tx: %+v", r)
			}
			recWasted += r.WastedGas
		}
		if recWasted != res.WastedGas {
			t.Fatalf("record wasted gas %d != executor wasted gas %d", recWasted, res.WastedGas)
		}
		// Stats.MaxIncarnation is defined by the abort records: every abort
		// of tx t advances t by exactly one incarnation, so the highest
		// incarnation reached equals the deepest per-tx abort count — and on
		// a healthy (non-degraded) block it stays below the breaker cap.
		perTxAborts := make(map[int]int64)
		var deepest int64
		for _, r := range recs {
			perTxAborts[r.Tx]++
			if perTxAborts[r.Tx] > deepest {
				deepest = perTxAborts[r.Tx]
			}
		}
		if res.Stats.MaxIncarnation != deepest {
			t.Fatalf("MaxIncarnation = %d, want deepest per-tx abort count %d",
				res.Stats.MaxIncarnation, deepest)
		}
		if res.Stats.Degraded {
			t.Fatalf("healthy workload degraded: %s", res.Stats.DegradeReason)
		}
		if res.Stats.MaxIncarnation >= 64 {
			t.Fatalf("MaxIncarnation %d at the default breaker cap without degrading", res.Stats.MaxIncarnation)
		}

		pm := telemetry.BlockPostMortem(record)
		if pm == nil {
			t.Fatal("no post-mortem for the executed block")
		}
		if pm.Aborts != len(recs) || pm.WastedGas != res.WastedGas {
			t.Fatalf("post-mortem aborts/wasted = %d/%d, want %d/%d",
				pm.Aborts, pm.WastedGas, len(recs), res.WastedGas)
		}
		treeAborts := 0
		for _, tree := range pm.Cascades {
			treeAborts += tree.Aborts
		}
		if treeAborts != pm.Aborts {
			t.Fatalf("cascade trees cover %d aborts, want %d", treeAborts, pm.Aborts)
		}
		// The executor must have completed the C-SAG audit for the block, and
		// every abort it recorded must be attributed to a cause tx there.
		if pm.Audit == nil || pm.Audit.Txs != len(txs) {
			t.Fatalf("post-mortem audit = %+v, want one covering %d txs", pm.Audit, len(txs))
		}
		cor := pm.Audit.Correlation
		if got := cor.AbortsCausedByMispredicted + cor.AbortsCausedByPredicted; got != len(recs) {
			t.Fatalf("audit attributes %d aborts to causes, want %d", got, len(recs))
		}
		return
	}
	t.Skip("no aborts observed in 20 attempts; cannot exercise forensics")
}

// TestForensicsCleanBlockAudit pins the other side of the contract: on an
// uncontended block the log still yields a post-mortem, with zero
// aborts, no cascades, and a perfect-recall audit.
func TestForensicsCleanBlockAudit(t *testing.T) {
	txs := []*types.Transaction{
		call(user(0), tokenAddr, 0, "transfer", user(1).Word(), u256.NewUint64(5)),
		call(user(2), tokenAddr, 0, "transfer", user(3).Word(), u256.NewUint64(7)),
		call(user(4), icoAddr, 100, "buy"),
	}
	db, reg := fixture(t)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	events := eventlog.New()
	events.Enable()
	ex := core.NewExecutor(reg, 4)
	ex.SetLog(events)
	res, err := ex.ExecuteBlock(db, blk, txs, csags)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Aborts != 0 {
		t.Fatalf("independent txs aborted %d times", res.Stats.Aborts)
	}
	pm := telemetry.BlockPostMortem(events.Block(int64(blk.Number)))
	if pm == nil {
		t.Fatal("no post-mortem")
	}
	if pm.Aborts != 0 || len(pm.Cascades) != 0 || pm.WastedGas != 0 {
		t.Fatalf("clean block post-mortem = %+v", pm)
	}
	if pm.TotalItems == 0 || len(pm.HotKeys) == 0 {
		t.Fatal("contention profiles not collected")
	}
	if pm.Audit == nil || pm.Audit.MispredictedTxs != 0 {
		t.Fatalf("audit = %+v, want zero mispredictions on the static workload", pm.Audit)
	}
	if pm.Audit.Reads.Recall != 1 || pm.Audit.Writes.Recall != 1 {
		t.Fatalf("audit recall = %v/%v, want 1/1",
			pm.Audit.Reads.Recall, pm.Audit.Writes.Recall)
	}
}
