package telemetry

import (
	"strings"
	"testing"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
)

func TestAuditTxScoring(t *testing.T) {
	a, b, c := fxItem(1), fxItem(2), fxItem(3)
	pred := TxPrediction{
		Tx: 4, Analyzed: true,
		Reads:   []sag.ItemID{a, b}, // b never read -> spurious
		Writes:  []sag.ItemID{a},    // missed write of c
		GasUsed: 100, Status: "success",
	}
	actual := TxAccessLog{
		Tx:      4,
		Reads:   []sag.ItemID{a},
		Writes:  []sag.ItemID{a, c},
		GasUsed: 100, Status: "success",
	}
	ta := AuditTx(pred, actual, 2)

	if ta.Reads.Precision != 0.5 || ta.Reads.Recall != 1 {
		t.Fatalf("reads = %+v, want precision 0.5 recall 1", ta.Reads)
	}
	if ta.Writes.Precision != 1 || ta.Writes.Recall != 0.5 {
		t.Fatalf("writes = %+v, want precision 1 recall 0.5", ta.Writes)
	}
	// Empty predicted and actual delta sets are a perfect score.
	if ta.Deltas.Precision != 1 || ta.Deltas.Recall != 1 {
		t.Fatalf("empty deltas = %+v, want 1/1", ta.Deltas)
	}
	if !ta.Mispredicted {
		t.Fatal("missed actual write must mark the tx mispredicted")
	}
	if len(ta.Missed) != 1 || !strings.Contains(ta.Missed[0], c.Label()) {
		t.Fatalf("missed = %v, want the unpredicted write of %s", ta.Missed, c.Label())
	}
	if len(ta.Spurious) != 1 || !strings.Contains(ta.Spurious[0], b.Label()) {
		t.Fatalf("spurious = %v", ta.Spurious)
	}
	if !ta.GasMatch || !ta.StatusMatch || ta.Aborts != 2 {
		t.Fatalf("gas/status/aborts = %v/%v/%d", ta.GasMatch, ta.StatusMatch, ta.Aborts)
	}
}

// TestAuditTxSpuriousOnly pins the Mispredicted semantics: over-prediction
// (spurious accesses) costs dropped versions but cannot surprise the
// scheduler, so it does not count as a misprediction.
func TestAuditTxSpuriousOnly(t *testing.T) {
	a, b := fxItem(1), fxItem(2)
	ta := AuditTx(
		TxPrediction{Analyzed: true, Reads: []sag.ItemID{a, b}},
		TxAccessLog{Reads: []sag.ItemID{a}}, 0)
	if ta.Mispredicted {
		t.Fatal("spurious-only prediction marked mispredicted")
	}
	if ta.Reads.Precision >= 1 || ta.Reads.Recall != 1 {
		t.Fatalf("reads = %+v", ta.Reads)
	}
}

func TestAuditBlockAggregation(t *testing.T) {
	a, b := fxItem(1), fxItem(2)
	preds := []TxPrediction{
		{Tx: 0, Analyzed: true, Reads: []sag.ItemID{a}, GasUsed: 10, Status: "success"},
		{Tx: 1, Analyzed: true, Reads: []sag.ItemID{a}, GasUsed: 20, Status: "success"},
		{Tx: 2, Analyzed: true, Reads: []sag.ItemID{a}, Writes: []sag.ItemID{a}, GasUsed: 30, Status: "success"},
	}
	actuals := []TxAccessLog{
		{Tx: 0, Reads: []sag.ItemID{a}, GasUsed: 10, Status: "success"},                          // perfect
		{Tx: 1, Reads: []sag.ItemID{a, b}, GasUsed: 25, Status: "reverted"},                      // missed read, gas+status wrong
		{Tx: 2, Reads: []sag.ItemID{a}, Writes: []sag.ItemID{b}, GasUsed: 30, Status: "success"}, // wrong write target
	}
	// tx2 aborted twice: once caused by tx1 (mispredicted), once by tx0
	// (well-predicted); a forced abort without a cause attributes nothing.
	events := []eventlog.Event{
		abortEv(2, 0, 0, -1, 1, a, -1, eventlog.AbortUnpredictedWrite, 0),
		wastedEv(2, 0, 5), // not an abort: must not count
		abortEv(2, 1, 1, -1, 0, a, -1, eventlog.AbortSnapshotStale, 0),
		abortEv(2, 2, 2, -1, -1, a, -1, eventlog.AbortForced, 0),
	}

	ba := AuditBlock(9, preds, actuals, events)
	if ba.Block != 9 || ba.Txs != 3 || ba.AnalyzedTxs != 3 {
		t.Fatalf("header = %+v", ba)
	}
	if ba.MispredictedTxs != 2 {
		t.Fatalf("mispredicted = %d, want 2 (tx1 missed a read, tx2 missed a write)", ba.MispredictedTxs)
	}
	if ba.GasMatches != 2 || ba.StatusMatches != 2 {
		t.Fatalf("gas/status matches = %d/%d, want 2/2", ba.GasMatches, ba.StatusMatches)
	}
	// Micro-averaged reads: predicted 3, actual 4, hits 3.
	if ba.Reads.Predicted != 3 || ba.Reads.Actual != 4 || ba.Reads.Hits != 3 {
		t.Fatalf("block reads = %+v", ba.Reads)
	}
	if ba.Reads.Recall != 0.75 {
		t.Fatalf("block read recall = %v, want 0.75", ba.Reads.Recall)
	}
	cor := ba.Correlation
	if cor.MispredictedAborted != 1 || cor.MispredictedClean != 1 ||
		cor.PredictedAborted != 0 || cor.PredictedClean != 1 {
		t.Fatalf("2x2 = %+v", cor)
	}
	if cor.AbortsCausedByMispredicted != 1 || cor.AbortsCausedByPredicted != 1 {
		t.Fatalf("cause attribution = %+v", cor)
	}
	if len(ba.PerTx) != 3 || ba.PerTx[2].Aborts != 3 {
		t.Fatalf("per-tx rows = %d, tx2 aborts = %d, want 3 rows / 3 aborts", len(ba.PerTx), ba.PerTx[2].Aborts)
	}
}

// TestAuditAttachedToBlock checks the wiring the executor uses: the audit is
// computed from the block's own abort events and read back off its record.
func TestAuditAttachedToBlock(t *testing.T) {
	a, b := fxItem(1), fxItem(2)
	lg := eventlog.New()
	lg.Enable()
	lg.Begin(5, 2)
	lg.Append(abortEv(1, 0, 0, -1, 0, a, -1, eventlog.AbortUnpredictedWrite, 0))

	preds := []TxPrediction{
		{Tx: 0, Analyzed: true, Writes: []sag.ItemID{a}}, // actually also wrote b
		{Tx: 1, Analyzed: true, Reads: []sag.ItemID{a}},
	}
	actuals := []TxAccessLog{
		{Tx: 0, Writes: []sag.ItemID{a, b}},
		{Tx: 1, Reads: []sag.ItemID{a}},
	}
	ba := AuditBlock(5, preds, actuals, lg.Events(5))
	lg.AddReport(5, ba)
	if got := BlockAuditOf(lg.Block(5)); got != ba {
		t.Fatal("audit not stored under its block")
	}
	if BlockAuditOf(lg.Block(6)) != nil {
		t.Fatal("unrecorded block has an audit")
	}
	cor := ba.Correlation
	// tx1 (well-predicted) suffered the abort; tx0 (mispredicted) caused it.
	if cor.PredictedAborted != 1 || cor.MispredictedClean != 1 {
		t.Fatalf("2x2 = %+v", cor)
	}
	if cor.AbortsCausedByMispredicted != 1 || cor.AbortsCausedByPredicted != 0 {
		t.Fatalf("cause attribution = %+v", cor)
	}
}
