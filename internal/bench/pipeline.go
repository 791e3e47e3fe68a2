package bench

import (
	"fmt"
	"strings"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/workload"
)

// PipelineReport compares pipelined multi-block execution — block N+1's
// C-SAG analysis overlapped with block N's execution — against the
// sequential analyze-execute-commit loop on twin worlds.
type PipelineReport struct {
	Blocks int
	Txs    int
	// RootsMatch reports whether every pipelined block committed the same
	// state root as its sequential twin (the RQ1 oracle for the pipeline).
	RootsMatch bool
	// SequentialWall / PipelinedWall are end-to-end wall times for the
	// whole multi-block run under each strategy.
	SequentialWall time.Duration
	PipelinedWall  time.Duration
	Stats          chain.PipelineStats
}

// Render formats the report for the CLI.
func (r *PipelineReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== pipeline: analysis/execution overlap (%s) ==\n", chain.ModeDMVCC)
	fmt.Fprintf(&sb, "blocks: %d (%d txs)\n", r.Blocks, r.Txs)
	match := "identical"
	if !r.RootsMatch {
		match = "MISMATCH (RQ1 violation)"
	}
	fmt.Fprintf(&sb, "roots vs sequential ExecuteAndCommit: %s\n", match)
	fmt.Fprintf(&sb, "sequential wall: %v\n", r.SequentialWall.Round(time.Millisecond))
	speedup := 1.0
	if r.PipelinedWall > 0 {
		speedup = float64(r.SequentialWall) / float64(r.PipelinedWall)
	}
	fmt.Fprintf(&sb, "pipelined wall:  %v (%.2fx)\n", r.PipelinedWall.Round(time.Millisecond), speedup)
	fmt.Fprintf(&sb, "analysis wall:   %v, hidden behind execution: %v (%.0f%%), stalled: %v\n",
		r.Stats.AnalysisWall.Round(time.Millisecond),
		r.Stats.Overlap.Round(time.Millisecond),
		100*r.Stats.OverlapFraction(),
		r.Stats.Stall.Round(time.Millisecond))
	fmt.Fprintf(&sb, "analyzed %d txs offline, reused %d cached analyses\n",
		r.Stats.Analyzed, r.Stats.Reused)
	return sb.String()
}

// MeasurePipeline executes cfg.Blocks blocks under DMVCC twice — once with
// the sequential per-block loop, once pipelined — verifies the committed
// roots agree block by block, and reports the analysis overlap won.
func MeasurePipeline(cfg SpeedupConfig) (*PipelineReport, error) {
	return MeasurePipelineTraced(cfg, nil, nil, nil)
}

// MeasurePipelineTraced is MeasurePipeline with telemetry attached to the
// pipelined run: the event log collects per-block scheduler events, the
// ledger the analysis/execution/commit stage intervals (so a Perfetto export
// shows the pipeline overlap), and the registry accumulates the engine
// metrics. All three may be nil.
func MeasurePipelineTraced(cfg SpeedupConfig, events *eventlog.Log, ledger *telemetry.StageLedger, reg *telemetry.Registry) (*PipelineReport, error) {
	source, err := workload.BuildWorld(cfg.Workload)
	if err != nil {
		return nil, err
	}
	inputs := make([]chain.BlockInput, 0, cfg.Blocks)
	rep := &PipelineReport{Blocks: cfg.Blocks}
	for b := 0; b < cfg.Blocks; b++ {
		blockCtx := source.BlockContext()
		txs := source.NextBlock()
		rep.Txs += len(txs)
		inputs = append(inputs, chain.BlockInput{Block: blockCtx, Txs: txs})
	}

	wSeq, err := workload.BuildWorld(cfg.Workload)
	if err != nil {
		return nil, err
	}
	engSeq := chain.NewEngine(wSeq.DB, wSeq.Registry, 8)
	seqRoots := make([]string, len(inputs))
	start := time.Now()
	for i, in := range inputs {
		_, root, err := engSeq.ExecuteAndCommit(chain.ModeDMVCC, in.Block, in.Txs)
		if err != nil {
			return nil, fmt.Errorf("sequential block %d: %w", i, err)
		}
		seqRoots[i] = root.String()
	}
	rep.SequentialWall = time.Since(start)

	wPipe, err := workload.BuildWorld(cfg.Workload)
	if err != nil {
		return nil, err
	}
	engPipe := chain.NewEngine(wPipe.DB, wPipe.Registry, 8,
		chain.WithLog(events), chain.WithLedger(ledger), chain.WithMetrics(reg))
	start = time.Now()
	res, err := engPipe.ExecutePipelined(chain.ModeDMVCC, inputs)
	if err != nil {
		return nil, err
	}
	rep.PipelinedWall = time.Since(start)
	rep.Stats = res.Stats

	rep.RootsMatch = true
	for i, root := range res.Roots {
		if root.String() != seqRoots[i] {
			rep.RootsMatch = false
		}
	}
	return rep, nil
}
