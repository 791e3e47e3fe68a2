package chain

import (
	"time"

	"dmvcc/internal/core"
	"dmvcc/internal/sag"
	"dmvcc/internal/schedsim"
)

// dmvccScheduler runs the paper's DMVCC protocol: C-SAG analysis (offline
// when the context carries pre-computed analyses, inline otherwise)
// followed by multi-version parallel execution with write versioning,
// early-write visibility, and commutative merging.
type dmvccScheduler struct{}

func init() { MustRegisterScheduler(40, dmvccScheduler{}) }

// Name implements Scheduler.
func (dmvccScheduler) Name() string { return string(ModeDMVCC) }

// Execute implements Scheduler.
func (s dmvccScheduler) Execute(ctx ExecContext) (*ExecOut, error) {
	out := &ExecOut{}
	csags := ctx.CSAGs
	if csags == nil {
		start := time.Now()
		var err error
		csags, err = s.AnalyzeOffline(ctx)
		if err != nil {
			return nil, err
		}
		out.AnalysisTime = time.Since(start)
	}
	ex := core.NewExecutor(ctx.Registry, ctx.Threads)
	ex.SetLog(ctx.Log)
	ex.SetFaults(ctx.Faults)
	if ctx.Harden != nil {
		ex.SetHardening(*ctx.Harden)
	}
	ex.SetGate(ctx.Gate)
	start := time.Now()
	res, err := ex.ExecuteBlock(ctx.State, ctx.Block, ctx.Txs, csags)
	if err != nil {
		return nil, err
	}
	out.ExecTime = time.Since(start)
	out.Stats = res.Stats
	out.Traces = res.Traces
	out.WastedGas = res.WastedGas
	return out.finish(res.Receipts, res.WriteSet, ctx.Txs), nil
}

// AnalyzeOffline implements OfflineAnalyzer: it produces the block's
// C-SAGs ahead of execution. Cached analyses in ctx.CSAGs are reused
// (re-indexed to their block positions); nil holes — transactions the pool
// never analyzed, or whose analysis went stale — are filled against the
// current snapshot. Per-transaction analysis failure on the refresh path is
// not fatal: the scheduler handles missing C-SAGs fully dynamically.
func (dmvccScheduler) AnalyzeOffline(ctx ExecContext) ([]*sag.CSAG, error) {
	if ctx.CSAGs == nil {
		return ctx.Analyzer.AnalyzeBlock(ctx.Txs, ctx.State, ctx.Block)
	}
	csags := make([]*sag.CSAG, len(ctx.Txs))
	copy(csags, ctx.CSAGs)
	for i, tx := range ctx.Txs {
		if csags[i] != nil {
			csags[i].TxIndex = i
			continue
		}
		if fresh, err := ctx.Analyzer.Analyze(tx, i, ctx.State, ctx.Block); err == nil {
			csags[i] = fresh
		}
	}
	return csags, nil
}

// Makespan implements Scheduler.
func (dmvccScheduler) Makespan(out *ExecOut, threads int) (uint64, error) {
	return schedsim.DMVCC(out.Traces, threads, out.WastedGas), nil
}
