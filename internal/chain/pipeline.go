package chain

import (
	"fmt"
	"time"

	"dmvcc/internal/evm"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
)

// BlockInput is one block of a pipelined run.
type BlockInput struct {
	// Block is the environment the block will carry.
	Block evm.BlockContext
	// Txs are the block's transactions in block order.
	Txs []*types.Transaction
	// CSAGs optionally seeds the analysis stage with cached analyses (a
	// transaction pool's). Nil entries — transactions the pool never
	// analyzed, or whose analysis went stale — are refreshed by the
	// pipeline's offline stage, concurrently with the previous block's
	// execution. A nil slice analyzes the whole block offline.
	CSAGs []*sag.CSAG
}

// PipelineStats reports how much offline-analysis work the pipeline
// performed and how much of it execution overlap hid.
type PipelineStats struct {
	// Blocks is the number of blocks executed.
	Blocks int
	// AnalysisWall is the summed wall time of the offline analysis stages.
	AnalysisWall time.Duration
	// ExecWall is the summed scheduler execution wall time.
	ExecWall time.Duration
	// Overlap is the portion of AnalysisWall hidden behind execution of the
	// preceding block — the pipeline's win over the sequential
	// analyze-execute-commit loop.
	Overlap time.Duration
	// Stall is the portion that was not hidden: time execution sat waiting
	// for the next block's analysis to finish.
	Stall time.Duration
	// CommitWait is the time the pipeline sat blocked on trie commits. With
	// an async-committing backend (state.AsyncCommitter), block N's trie
	// build overlaps block N+1's execution and this collapses toward the
	// last block's commit; with a synchronous backend it is the full summed
	// commit wall time.
	CommitWait time.Duration
	// Reused counts transactions whose caller-provided (pool-cached)
	// analysis was reused as-is; Analyzed counts transactions the pipeline
	// analyzed or refreshed itself — the pool's holes (nil or stale slots).
	Reused   int
	Analyzed int
	// Stalls counts block hand-offs where execution finished before the next
	// block's overlapped analysis had — each is one pipeline bubble (the
	// per-occurrence count behind the summed Stall duration).
	Stalls int
}

// OverlapFraction returns the share of analysis wall time hidden behind
// execution, clamped to [0,1]. Timer jitter can make the summed overlap
// nominally exceed the summed analysis wall; the clamp keeps the ratio a
// valid fraction.
func (s PipelineStats) OverlapFraction() float64 {
	if s.AnalysisWall <= 0 {
		return 0
	}
	f := float64(s.Overlap) / float64(s.AnalysisWall)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// RecordMetrics implements telemetry.Source: pipeline wall-time splits and
// analysis reuse counters accumulate under the "pipeline." prefix, with the
// derived overlap fraction as a parts-per-million gauge (the registry is
// integer-valued) and the stall/hole counts as first-class counters, so the
// pipeline's health is readable straight off /metrics — JSON or Prometheus —
// without fetching a per-run snapshot.
func (s PipelineStats) RecordMetrics(r *telemetry.Registry) {
	r.Counter("pipeline.blocks").Add(int64(s.Blocks))
	r.Counter("pipeline.analysis_wall_ns").Add(s.AnalysisWall.Nanoseconds())
	r.Counter("pipeline.exec_wall_ns").Add(s.ExecWall.Nanoseconds())
	r.Counter("pipeline.overlap_ns").Add(s.Overlap.Nanoseconds())
	r.Counter("pipeline.stall_ns").Add(s.Stall.Nanoseconds())
	r.Counter("pipeline.commit_wait_ns").Add(s.CommitWait.Nanoseconds())
	r.Counter("pipeline.reused").Add(int64(s.Reused))
	r.Counter("pipeline.analyzed").Add(int64(s.Analyzed))
	r.Counter("pipeline.holes").Add(int64(s.Analyzed))
	r.Counter("pipeline.stall_blocks").Add(int64(s.Stalls))
	r.Gauge("pipeline.overlap_fraction_ppm").Set(int64(s.OverlapFraction() * 1e6))
}

var _ telemetry.Source = PipelineStats{}

// PipelineHooks injects observation points for tests. All hooks may be nil.
// AnalysisStart(i) fires on the pipeline goroutine right before block i's
// analysis stage launches (so, for i >= 1, strictly before ExecStart(i-1));
// AnalysisDone(i) fires on the analysis goroutine when the stage completes.
type PipelineHooks struct {
	AnalysisStart func(block int)
	AnalysisDone  func(block int)
	ExecStart     func(block int)
	ExecDone      func(block int)
}

// PipelineOut is the outcome of a pipelined multi-block execution.
type PipelineOut struct {
	// Outs are the per-block execution outcomes, in chain order.
	Outs []*ExecOut
	// Roots are the committed state roots after each block.
	Roots []types.Hash
	Stats PipelineStats
}

// blockAnalysis is the in-flight offline analysis of one block.
type blockAnalysis struct {
	csags []*sag.CSAG
	dur   time.Duration
	err   error
	done  chan struct{}
}

// ExecutePipelined executes and commits a sequence of blocks under mode,
// overlapping block N+1's C-SAG analysis with block N's execution: while a
// block runs, the next block's analysis proceeds concurrently against the
// still-committed pre-state (the paper's offline-analysis workflow, Fig. 2
// — the prediction is one block stale by execution time, which the
// scheduler's dynamic abort path absorbs). Committed roots are identical to
// running ExecuteAndCommit per block. Schedulers without an offline
// analysis stage degenerate to the sequential loop (zero overlap).
func (e *Engine) ExecutePipelined(mode Mode, blocks []BlockInput) (*PipelineOut, error) {
	return e.ExecutePipelinedHooked(mode, blocks, PipelineHooks{})
}

// ExecutePipelinedHooked is ExecutePipelined with observation hooks.
func (e *Engine) ExecutePipelinedHooked(mode Mode, blocks []BlockInput, hooks PipelineHooks) (*PipelineOut, error) {
	sched, err := SchedulerFor(mode)
	if err != nil {
		return nil, err
	}
	offline, canOverlap := sched.(OfflineAnalyzer)

	res := &PipelineOut{
		Outs:  make([]*ExecOut, len(blocks)),
		Roots: make([]types.Hash, len(blocks)),
		Stats: PipelineStats{Blocks: len(blocks)},
	}

	analyze := func(i int, a *blockAnalysis) {
		defer close(a.done)
		start := time.Now()
		e.ledger.Enter(telemetry.StageAnalysis, int64(blocks[i].Block.Number))
		a.csags, a.err = offline.AnalyzeOffline(e.execContext(blocks[i].Block, blocks[i].Txs, blocks[i].CSAGs))
		e.ledger.Exit(telemetry.StageAnalysis, int64(blocks[i].Block.Number))
		a.dur = time.Since(start)
		if hooks.AnalysisDone != nil {
			hooks.AnalysisDone(i)
		}
	}
	launch := func(i int) *blockAnalysis {
		a := &blockAnalysis{done: make(chan struct{})}
		if hooks.AnalysisStart != nil {
			hooks.AnalysisStart(i)
		}
		for _, c := range blocks[i].CSAGs {
			if c != nil {
				res.Stats.Reused++
			}
		}
		res.Stats.Analyzed += len(blocks[i].Txs) - countNonNil(blocks[i].CSAGs)
		return a
	}

	// Block 0's analysis has nothing to hide behind; run it synchronously.
	var cur *blockAnalysis
	if canOverlap && len(blocks) > 0 {
		cur = launch(0)
		analyze(0, cur)
	}

	// At most one commit is in flight: block N's trie build runs behind
	// block N+1's analysis and execution (the flat post-state is already
	// visible, so both read correct pre-state), and is collected before
	// block N+1's own commit is issued. collectCommit charges the blocked
	// time to CommitWait; the deferred drain keeps an early error return
	// from abandoning a commit mid-flight.
	var pendingCommit <-chan state.CommitResult
	var pendingIdx int
	defer func() {
		if pendingCommit != nil {
			<-pendingCommit
		}
	}()
	collectCommit := func() error {
		if pendingCommit == nil {
			return nil
		}
		waitStart := time.Now()
		select {
		case r := <-pendingCommit:
			// Commit already done — drained without blocking.
			pendingCommit = nil
			res.Stats.CommitWait += time.Since(waitStart)
			if r.Err != nil {
				return fmt.Errorf("chain: pipeline commit of block %d: %w", pendingIdx, r.Err)
			}
			res.Roots[pendingIdx] = r.Root
			return nil
		default:
			// The previous block's commit is still in flight and the pipeline
			// now needs its slot: the committer is backpressuring the chain.
			e.ledger.NoteBackpressure()
		}
		r := <-pendingCommit
		pendingCommit = nil
		res.Stats.CommitWait += time.Since(waitStart)
		if r.Err != nil {
			return fmt.Errorf("chain: pipeline commit of block %d: %w", pendingIdx, r.Err)
		}
		res.Roots[pendingIdx] = r.Root
		return nil
	}

	for i := range blocks {
		// Kick off the next block's analysis before this block executes;
		// it reads the committed pre-state of block i, so it must be
		// collected before commit below mutates the database.
		var next *blockAnalysis
		if canOverlap && i+1 < len(blocks) {
			next = launch(i + 1)
			go analyze(i+1, next)
		}

		csags := blocks[i].CSAGs
		if cur != nil {
			<-cur.done
			if cur.err != nil {
				return nil, fmt.Errorf("chain: pipeline analysis of block %d: %w", i, cur.err)
			}
			csags = cur.csags
			res.Stats.AnalysisWall += cur.dur
		}

		if hooks.ExecStart != nil {
			hooks.ExecStart(i)
		}
		// Key fault injection and the occupancy ledger to the block actually
		// running, not whatever the last sequential call left behind.
		e.lastBlock = int64(blocks[i].Block.Number)
		e.commitAttempts = 0
		execStart := time.Now()
		e.ledger.Enter(telemetry.StageExecution, int64(blocks[i].Block.Number))
		out, err := sched.Execute(e.execContext(blocks[i].Block, blocks[i].Txs, csags))
		e.ledger.Exit(telemetry.StageExecution, int64(blocks[i].Block.Number))
		if err != nil {
			return nil, fmt.Errorf("chain: pipeline block %d: %w", i, err)
		}
		execDur := time.Since(execStart)
		res.Stats.ExecWall += execDur
		e.observe(mode, out)
		if hooks.ExecDone != nil {
			hooks.ExecDone(i)
		}
		if cur != nil {
			out.AnalysisTime = cur.dur
		}

		// Collect the overlapped analysis before committing: whatever of
		// its duration we do not spend waiting here ran hidden behind this
		// block's execution.
		if next != nil {
			select {
			case <-next.done:
				// Analysis finished under cover of this block's execution —
				// the hand-off is bubble-free.
			default:
				res.Stats.Stalls++
			}
			waitStart := time.Now()
			<-next.done
			stall := time.Since(waitStart)
			res.Stats.Stall += stall
			if hidden := next.dur - stall; hidden > 0 {
				res.Stats.Overlap += hidden
			}
		}

		if err := collectCommit(); err != nil {
			return nil, err
		}
		pendingCommit = e.CommitAsync(out.WriteSet)
		pendingIdx = i
		res.Outs[i] = out
		cur = next
	}
	if err := collectCommit(); err != nil {
		return nil, err
	}
	if e.metrics != nil {
		res.Stats.RecordMetrics(e.metrics)
	}
	return res, nil
}

// countNonNil counts filled analysis slots.
func countNonNil(csags []*sag.CSAG) int {
	n := 0
	for _, c := range csags {
		if c != nil {
			n++
		}
	}
	return n
}
