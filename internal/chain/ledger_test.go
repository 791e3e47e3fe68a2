package chain_test

import (
	"testing"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/workload"
)

// TestEngineFeedsLedger wires an enabled stage ledger through a pipelined
// run and checks every surface it is supposed to feed: per-stage intervals
// with correct block numbers, throughput counters, commit lag, and a clean
// gap audit.
func TestEngineFeedsLedger(t *testing.T) {
	cfg := smallConfig(23)
	cfg.TxPerBlock = 60
	const nblocks = 3
	inputs := pipelineInputs(t, cfg, nblocks)

	w, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger := telemetry.NewStageLedger()
	ledger.Enable()
	reg := telemetry.NewRegistry()
	eng := chain.NewEngine(w.DB, w.Registry, 4, chain.WithLedger(ledger), chain.WithMetrics(reg))
	if eng.Ledger() != ledger {
		t.Fatal("WithLedger not applied")
	}
	if _, err := eng.ExecutePipelined(chain.ModeDMVCC, inputs); err != nil {
		t.Fatal(err)
	}

	execs := ledger.Intervals(telemetry.StageExecution)
	if len(execs) != nblocks {
		t.Fatalf("execution intervals = %d, want %d", len(execs), nblocks)
	}
	for i, iv := range execs {
		if iv.Block != int64(inputs[i].Block.Number) {
			t.Fatalf("exec interval %d keyed to block %d, want %d", i, iv.Block, inputs[i].Block.Number)
		}
		if iv.End <= iv.Start {
			t.Fatalf("degenerate interval %+v", iv)
		}
	}
	if n := len(ledger.Intervals(telemetry.StageAnalysis)); n != nblocks {
		t.Fatalf("analysis intervals = %d, want %d", n, nblocks)
	}
	if n := len(ledger.Intervals(telemetry.StageCommit)); n != nblocks {
		t.Fatalf("commit intervals = %d, want %d", n, nblocks)
	}

	blocks, txs, _ := ledger.Counts()
	if blocks != nblocks {
		t.Fatalf("ledger blocks = %d", blocks)
	}
	wantTxs := int64(0)
	for _, in := range inputs {
		wantTxs += int64(len(in.Txs))
	}
	if txs != wantTxs {
		t.Fatalf("ledger txs = %d, want %d", txs, wantTxs)
	}
	if _, max, _ := ledger.CommitLag(); max <= 0 {
		t.Fatal("no commit lag recorded")
	}
	if ledger.CommitQueueDepth() != 0 {
		t.Fatal("commits left in flight")
	}
	if gaps := telemetry.AuditStageGaps(ledger, 250*time.Millisecond); len(gaps) != 0 {
		t.Fatalf("tiny run flagged gaps: %+v", gaps)
	}

	// The engine pushes the ledger roll-up into its metrics registry per
	// block, so occupancy is scrapeable from /metrics without extra wiring.
	snap := reg.Snapshot()
	if got := snap.Gauges["ledger.blocks"]; got != nblocks {
		t.Fatalf("ledger.blocks gauge = %d, want %d", got, nblocks)
	}
	if _, ok := snap.Gauges["ledger.occupancy_ppm.execution"]; !ok {
		t.Fatal("execution occupancy gauge not published")
	}
}

// TestSequentialCommitFeedsLedger covers the non-pipelined path: Execute +
// Commit via ExecuteAndCommit with a ledger attached.
func TestSequentialCommitFeedsLedger(t *testing.T) {
	cfg := smallConfig(29)
	cfg.TxPerBlock = 40
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ledger := telemetry.NewStageLedger()
	ledger.Enable()
	eng := chain.NewEngine(w.DB, w.Registry, 4, chain.WithLedger(ledger))
	blockCtx := w.BlockContext()
	if _, _, err := eng.ExecuteAndCommit(chain.ModeDMVCC, blockCtx, w.NextBlock()); err != nil {
		t.Fatal(err)
	}
	if n := len(ledger.Intervals(telemetry.StageExecution)); n != 1 {
		t.Fatalf("execution intervals = %d", n)
	}
	commits := ledger.Intervals(telemetry.StageCommit)
	if len(commits) != 1 || commits[0].Block != int64(blockCtx.Number) {
		t.Fatalf("commit intervals = %+v", commits)
	}
	if b, _, _ := ledger.Counts(); b != 1 {
		t.Fatalf("blocks = %d", b)
	}
}

// TestPipelineStatsStallsAndMetrics checks the stall counter and the
// derived registry metrics of PipelineStats.
func TestPipelineStatsStallsAndMetrics(t *testing.T) {
	s := chain.PipelineStats{
		Blocks: 5, Analyzed: 7, Reused: 3, Stalls: 2,
		AnalysisWall: 100 * time.Millisecond,
		Overlap:      75 * time.Millisecond,
	}
	r := telemetry.NewRegistry()
	s.RecordMetrics(r)
	snap := r.Snapshot()
	if snap.Counters["pipeline.stall_blocks"] != 2 {
		t.Fatalf("stall_blocks = %d", snap.Counters["pipeline.stall_blocks"])
	}
	if snap.Counters["pipeline.holes"] != 7 {
		t.Fatalf("holes = %d", snap.Counters["pipeline.holes"])
	}
	if got := snap.Gauges["pipeline.overlap_fraction_ppm"]; got != 750_000 {
		t.Fatalf("overlap_fraction_ppm = %d", got)
	}
}

// benchLedgerExecute runs pipelined blocks with the given ledger attached.
func benchLedgerExecute(b *testing.B, ledger *telemetry.StageLedger) {
	b.Helper()
	cfg := smallConfig(31)
	cfg.TxPerBlock = 96
	src, err := workload.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	inputs := make([]chain.BlockInput, 0, 3)
	for i := 0; i < 3; i++ {
		blockCtx := src.BlockContext()
		inputs = append(inputs, chain.BlockInput{Block: blockCtx, Txs: src.NextBlock()})
	}
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := chain.NewEngine(w.DB, w.Registry, 4, chain.WithLedger(ledger))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecutePipelined(chain.ModeDMVCC, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLedgerNone is the baseline: no ledger attached, every hook is a
// nil check.
func BenchmarkLedgerNone(b *testing.B) {
	benchLedgerExecute(b, nil)
}

// BenchmarkLedgerDisabled attaches a ledger but leaves it disabled: each
// per-block-stage hook pays one atomic-flag load and nothing else. The
// contract (mirroring the event log's) is that this stays within 2% of
// BenchmarkLedgerNone — pinned in CI next to the telemetry-overhead gate.
func BenchmarkLedgerDisabled(b *testing.B) {
	benchLedgerExecute(b, telemetry.NewStageLedger())
}

// BenchmarkLedgerEnabled bounds the cost of full interval collection, for
// comparison (not part of the <2% contract).
func BenchmarkLedgerEnabled(b *testing.B) {
	l := telemetry.NewStageLedger()
	l.Enable()
	benchLedgerExecute(b, l)
}
