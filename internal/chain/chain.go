// Package chain glues the execution engines to the state database: it
// analyzes blocks (offline, as in the paper's transaction-pool workflow),
// dispatches them to a registered Scheduler, and commits write sets,
// exposing the timing split the evaluation needs (analysis time is excluded
// from execution speedups, matching §V-C). Execution schemes are pluggable:
// each scheduler registers itself under a Mode name and every consumer —
// engine, benchmarks, network simulator, CLIs — iterates the registry.
package chain

import (
	"errors"
	"fmt"
	"time"

	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/evm"
	"dmvcc/internal/fault"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
)

// ExecOut is the outcome of executing (not yet committing) one block.
type ExecOut struct {
	Receipts []*types.Receipt
	WriteSet *state.WriteSet

	// Stats carries DMVCC scheduler counters (zero for other modes).
	Stats core.Stats
	// Aborts is the OCC re-execution count (zero for other modes; DMVCC
	// aborts are in Stats.Aborts).
	Aborts int64

	// AnalysisTime covers C-SAG construction / oracle set recording —
	// offline work in the paper's pipeline. ExecTime is the parallel
	// execution wall time.
	AnalysisTime time.Duration
	ExecTime     time.Duration

	// Inputs for the scheduling simulator (schedsim), which reproduces the
	// paper's simulated thread-scaling methodology: per-transaction gas
	// costs, plus the scheduler-specific artifacts of this execution.
	GasCosts  []uint64
	Traces    []*core.TxTrace // DMVCC dependency traces
	Batches   [][]int         // OCC per-round execution batches
	DAGPreds  [][]int         // DAG dependency lists
	WastedGas uint64          // DMVCC aborted-incarnation work
}

// Makespan computes this execution's virtual-time makespan on the given
// number of worker threads under the named scheduler's scheduling model.
// The mode must match the mode Execute ran (the serial mode works on any
// output, as every scheduler records gas costs).
func (o *ExecOut) Makespan(mode Mode, threads int) (uint64, error) {
	s, err := SchedulerFor(mode)
	if err != nil {
		return 0, err
	}
	return s.Makespan(o, threads)
}

// Engine executes blocks against a state database.
type Engine struct {
	db      state.Backend
	reg     *sag.Registry
	an      *sag.Analyzer
	threads int
	chainID uint64
	log     *eventlog.Log
	metrics *telemetry.Registry
	ledger  *telemetry.StageLedger
	faults  *fault.Injector
	harden  *core.Hardening
	gate    core.Gate

	// Commit fault bookkeeping: the block whose write set the next Commit
	// applies, and how many commit attempts it has seen (injected commit
	// failures stop after maxCommitFaults so a retrying caller converges).
	lastBlock      int64
	commitAttempts int
}

// maxCommitFaults bounds injected commit failures per block: attempts past
// this always succeed, so retry loops terminate deterministically.
const maxCommitFaults = 3

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithChainID sets the chain identifier the engine stamps into the block
// context when re-executing received blocks (default 1).
func WithChainID(id uint64) EngineOption {
	return func(e *Engine) { e.chainID = id }
}

// WithLog attaches the scheduler event log: while it is enabled, every DMVCC
// execution appends its complete scheduling history to it — the one record
// the Perfetto export, critical path, conflict post-mortem, C-SAG audit and
// the replay toolchain all read.
func WithLog(l *eventlog.Log) EngineOption {
	return func(e *Engine) { e.log = l }
}

// WithMetrics attaches a metrics registry: per-mode latency histograms,
// commit timings, and scheduler counters accumulate into it.
func WithMetrics(m *telemetry.Registry) EngineOption {
	return func(e *Engine) { e.metrics = m }
}

// WithLedger attaches a stage-occupancy ledger: every execution, offline
// analysis, and commit reports its enter/exit interval into it (while it is
// enabled), feeding the rolling node-level time series, the stage-gap
// auditor and the Perfetto export's pipeline tracks. Events fire once per
// stage per block, never on the transaction hot path.
func WithLedger(l *telemetry.StageLedger) EngineOption {
	return func(e *Engine) { e.ledger = l }
}

// WithFaults attaches a deterministic fault injector: DMVCC executions and
// the engine's commit path inject the configured fault classes (chaos
// testing). A nil or inactive injector is the production configuration.
func WithFaults(in *fault.Injector) EngineOption {
	return func(e *Engine) { e.faults = in }
}

// WithHardening overrides the DMVCC failure-containment thresholds — the
// abort-storm circuit breaker and the stall watchdog (see core.Hardening).
func WithHardening(h core.Hardening) EngineOption {
	return func(e *Engine) { e.harden = &h }
}

// WithGate attaches a replay gate: DMVCC executions are forced to follow
// the interleaving the gate admits (deterministic replay).
func WithGate(g core.Gate) EngineOption {
	return func(e *Engine) { e.gate = g }
}

// NewEngine returns an engine over db — any state.Backend: the reference
// trie DB or a flat backend — using the contract registry for analysis,
// running parallel schemes, and the C-SAG pre-run, on the given number of
// threads.
func NewEngine(db state.Backend, reg *sag.Registry, threads int, opts ...EngineOption) *Engine {
	e := &Engine{
		db:      db,
		reg:     reg,
		an:      sag.NewAnalyzer(reg),
		threads: threads,
		chainID: 1,
	}
	for _, o := range opts {
		o(e)
	}
	e.an.SetThreads(threads)
	e.attachKVFaults()
	return e
}

// kvFaultable is the capability a disk-backed state backend exposes for
// chaos testing its KV layer (state.FlatBackend implements it; in-memory
// backends ignore the hooks).
type kvFaultable interface {
	SetKVFaultHooks(read func(key []byte) error, flush func() time.Duration)
}

// attachKVFaults wires the injector's KVReadFail/KVFlushSlow points into the
// backend's KV fault hooks, or detaches them when no active injector is set.
func (e *Engine) attachKVFaults() {
	b, ok := e.db.(kvFaultable)
	if !ok {
		return
	}
	if e.faults.Enabled() {
		b.SetKVFaultHooks(e.faults.KVHooks())
	} else {
		b.SetKVFaultHooks(nil, nil)
	}
}

// DB returns the underlying state backend.
func (e *Engine) DB() state.Backend { return e.db }

// ChainID returns the configured chain identifier.
func (e *Engine) ChainID() uint64 { return e.chainID }

// SetThreads adjusts the parallelism for subsequent executions and C-SAG
// pre-runs.
func (e *Engine) SetThreads(n int) {
	e.threads = n
	e.an.SetThreads(n)
}

// SetMetrics attaches (or detaches, with nil) the metrics registry.
func (e *Engine) SetMetrics(m *telemetry.Registry) { e.metrics = m }

// Metrics returns the attached metrics registry (nil when none).
func (e *Engine) Metrics() *telemetry.Registry { return e.metrics }

// SetLedger attaches (or detaches, with nil) the stage-occupancy ledger.
func (e *Engine) SetLedger(l *telemetry.StageLedger) { e.ledger = l }

// Ledger returns the attached stage-occupancy ledger (nil when none).
func (e *Engine) Ledger() *telemetry.StageLedger { return e.ledger }

// SetFaults attaches (or detaches, with nil) the fault injector, rewiring
// the backend's KV fault hooks to match.
func (e *Engine) SetFaults(in *fault.Injector) {
	e.faults = in
	e.attachKVFaults()
}

// Faults returns the attached fault injector (nil when none).
func (e *Engine) Faults() *fault.Injector { return e.faults }

// SetHardening overrides the DMVCC failure-containment thresholds.
func (e *Engine) SetHardening(h core.Hardening) { e.harden = &h }

// SetGate attaches (or detaches, with nil) the replay gate.
func (e *Engine) SetGate(g core.Gate) { e.gate = g }

// execContext assembles the scheduler input for one block.
func (e *Engine) execContext(blockCtx evm.BlockContext, txs []*types.Transaction, csags []*sag.CSAG) ExecContext {
	return ExecContext{
		State:    e.db,
		Registry: e.reg,
		Analyzer: e.an,
		Block:    blockCtx,
		Txs:      txs,
		Threads:  e.threads,
		CSAGs:    csags,
		Log:      e.log,
		Metrics:  e.metrics,
		Faults:   e.faults,
		Harden:   e.harden,
		Gate:     e.gate,
	}
}

// Execute runs the block under the chosen scheme without committing.
func (e *Engine) Execute(mode Mode, blockCtx evm.BlockContext, txs []*types.Transaction) (*ExecOut, error) {
	return e.ExecuteWith(mode, blockCtx, txs, nil)
}

// ExecuteWith is Execute with pre-computed C-SAGs (e.g. cached by a
// transaction pool): analysis-aware schedulers skip the analysis phase,
// the rest ignore them.
func (e *Engine) ExecuteWith(mode Mode, blockCtx evm.BlockContext, txs []*types.Transaction, csags []*sag.CSAG) (*ExecOut, error) {
	s, err := SchedulerFor(mode)
	if err != nil {
		return nil, err
	}
	if e.lastBlock != int64(blockCtx.Number) {
		e.lastBlock = int64(blockCtx.Number)
		e.commitAttempts = 0
	}
	e.ledger.Enter(telemetry.StageExecution, int64(blockCtx.Number))
	out, err := s.Execute(e.execContext(blockCtx, txs, csags))
	e.ledger.Exit(telemetry.StageExecution, int64(blockCtx.Number))
	if err != nil {
		return nil, err
	}
	e.observe(mode, out)
	return out, nil
}

// observe records one execution outcome into the metrics registry: per-mode
// block execution and analysis latency histograms, the per-transaction
// virtual service-time distribution, and (for DMVCC) the scheduler counters.
// The occupancy ledger's throughput counters (blocks, txs, aborts) bump here
// too, independent of whether a metrics registry is attached.
func (e *Engine) observe(mode Mode, out *ExecOut) {
	if out != nil && e.ledger.Enabled() {
		e.ledger.NoteBlock(int64(len(out.Receipts)), out.Stats.Aborts+out.Aborts)
	}
	if e.metrics == nil || out == nil {
		return
	}
	m := string(mode)
	e.metrics.Histogram("chain." + m + ".block_exec_ns").Observe(float64(out.ExecTime.Nanoseconds()))
	if out.AnalysisTime > 0 {
		e.metrics.Histogram("chain." + m + ".analysis_ns").Observe(float64(out.AnalysisTime.Nanoseconds()))
	}
	h := e.metrics.Histogram("chain." + m + ".tx_service_cost")
	for _, c := range out.GasCosts {
		h.Observe(float64(c))
	}
	if mode == ModeDMVCC {
		out.Stats.RecordMetrics(e.metrics)
		e.metrics.Counter("core.wasted_gas").Add(int64(out.WastedGas))
	}
	if out.Aborts > 0 {
		e.metrics.Counter("chain." + m + ".aborts").Add(out.Aborts)
	}
	if e.ledger.Enabled() {
		e.ledger.RecordMetrics(e.metrics)
	}
}

// Analyzer exposes the engine's SAG analyzer (shared with transaction
// pools so cached analyses use the same registry).
func (e *Engine) Analyzer() *sag.Analyzer { return e.an }

// Commit applies a block's write set and returns the new state root — the
// RQ1 equivalence oracle. With a fault injector attached, the commit may be
// artificially slowed (fault.CommitSlow) or failed (fault.CommitFail,
// wrapping fault.ErrInjectedCommit); injected failures stop after
// maxCommitFaults attempts per block, so retrying the commit always
// converges — the write set itself is never touched.
func (e *Engine) Commit(ws *state.WriteSet) (types.Hash, error) {
	if e.ledger.Enabled() {
		// The injected CommitSlow sleep counts as commit-stage busy time: it
		// models a slow commit, which is exactly what the occupancy ledger
		// and gap auditor are meant to surface.
		e.ledger.Enter(telemetry.StageCommit, e.lastBlock)
		e.ledger.NoteCommitIssued()
		issued := time.Now()
		defer func() {
			e.ledger.Exit(telemetry.StageCommit, e.lastBlock)
			e.ledger.NoteCommitDone(time.Since(issued))
		}()
	}
	if in := e.faults; in.Enabled() {
		attempt := e.commitAttempts
		e.commitAttempts++
		if d := in.DelayFor(fault.CommitSlow, e.lastBlock, attempt, 0); d > 0 {
			time.Sleep(d)
		}
		if attempt < maxCommitFaults && in.Fire(fault.CommitFail, e.lastBlock, attempt, 0) {
			if e.metrics != nil {
				e.metrics.Counter("chain.commit_faults").Inc()
			}
			return types.Hash{}, fmt.Errorf("%w: block %d attempt %d", fault.ErrInjectedCommit, e.lastBlock, attempt)
		}
	}
	start := time.Now()
	root, err := e.db.Commit(ws)
	if err != nil {
		return root, err
	}
	if e.metrics != nil {
		e.metrics.Histogram("chain.commit_ns").Observe(float64(time.Since(start).Nanoseconds()))
		if sp, ok := e.db.(interface{ LastCommitStats() state.CommitStats }); ok {
			e.observeCommitStats(sp.LastCommitStats())
		}
		e.observeDurability()
	}
	return root, nil
}

// CommitAsync starts committing a block's write set: the flat post-state is
// visible as soon as it returns, and the authenticated root is delivered on
// the channel once the backend's background committer hashes the trie. It
// degrades to a synchronous Commit — result pre-filled on the channel — when
// the backend lacks the AsyncCommitter capability or a fault injector is
// attached (the injected commit-failure/retry protocol needs the caller on
// the commit path).
func (e *Engine) CommitAsync(ws *state.WriteSet) <-chan state.CommitResult {
	ac, ok := e.db.(state.AsyncCommitter)
	if !ok || e.faults.Enabled() {
		ch := make(chan state.CommitResult, 1)
		root, err := e.Commit(ws)
		ch <- state.CommitResult{Root: root, Err: err}
		return ch
	}
	start := time.Now()
	if e.ledger.Enabled() {
		e.ledger.Enter(telemetry.StageCommit, e.lastBlock)
		e.ledger.NoteCommitIssued()
	}
	ledgerBlock := e.lastBlock
	inner := ac.CommitAsync(ws, e.threads)
	out := make(chan state.CommitResult, 1)
	go func() {
		res := <-inner
		if e.ledger.Enabled() {
			e.ledger.Exit(telemetry.StageCommit, ledgerBlock)
			e.ledger.NoteCommitDone(time.Since(start))
		}
		if res.Err == nil && e.metrics != nil {
			e.metrics.Histogram("chain.commit_ns").Observe(float64(time.Since(start).Nanoseconds()))
			e.observeCommitStats(res.Stats)
			e.observeDurability()
		}
		out <- res
	}()
	return out
}

// observeCommitStats folds a commit's timing split into the metrics
// registry (backends that do not measure the split report zeros, which are
// skipped).
func (e *Engine) observeCommitStats(s state.CommitStats) {
	if e.metrics == nil {
		return
	}
	if s.FlatNs > 0 {
		e.metrics.Histogram("chain.commit_flat_ns").Observe(float64(s.FlatNs))
	}
	if s.StorageNs > 0 {
		e.metrics.Histogram("chain.commit_storage_ns").Observe(float64(s.StorageNs))
	}
	if s.AccountNs > 0 {
		e.metrics.Histogram("chain.commit_account_ns").Observe(float64(s.AccountNs))
	}
	if s.DirtyAccounts > 0 {
		e.metrics.Counter("chain.commit_dirty_accounts").Add(int64(s.DirtyAccounts))
	}
	if s.DirtySlots > 0 {
		e.metrics.Counter("chain.commit_dirty_slots").Add(int64(s.DirtySlots))
	}
	if s.SyncNs > 0 {
		e.metrics.Histogram("chain.commit_sync_ns").Observe(float64(s.SyncNs))
	}
}

// observeDurability publishes the backend's durability counters as gauges
// (fsync count, cumulative sync latency, log size, recovery accounting), so
// disk-backed runs expose their WAL discipline on /metrics and the -obs
// dashboard. No-op for in-memory backends or without a registry.
func (e *Engine) observeDurability() {
	if e.metrics == nil {
		return
	}
	dp, ok := e.db.(interface{ DurabilityStats() state.DurabilityStats })
	if !ok {
		return
	}
	d := dp.DurabilityStats()
	if !d.Persistent {
		return
	}
	e.metrics.Gauge("kvdisk.fsyncs").Set(d.Fsyncs)
	e.metrics.Gauge("kvdisk.sync_ns_total").Set(d.SyncNs)
	e.metrics.Gauge("kvdisk.log_bytes").Set(d.LogBytes)
	e.metrics.Gauge("kvdisk.flushed_bytes").Set(d.FlushedBytes)
	e.metrics.Gauge("kvdisk.commit_markers").Set(d.Commits)
	e.metrics.Gauge("kvdisk.recovered_height").Set(int64(d.RecoveredHeight))
	e.metrics.Gauge("kvdisk.rolled_back_bytes").Set(d.RolledBackBytes)
}

// ExecuteAndCommit executes under mode and commits, returning the root.
func (e *Engine) ExecuteAndCommit(mode Mode, blockCtx evm.BlockContext, txs []*types.Transaction) (*ExecOut, types.Hash, error) {
	out, err := e.Execute(mode, blockCtx, txs)
	if err != nil {
		return nil, types.Hash{}, err
	}
	root, err := e.Commit(out.WriteSet)
	if err != nil {
		return nil, types.Hash{}, err
	}
	return out, root, nil
}

// ErrValidation reports a received block whose re-execution does not match
// its header commitments.
var ErrValidation = errors.New("chain: block validation failed")

// ValidateBlock re-executes a block received from a peer under the chosen
// scheme and checks the header's commitments: the transaction root and the
// post-state root (the paper's RQ1 oracle applied at block import). On
// success the block's write set is committed and the receipts returned.
func (e *Engine) ValidateBlock(mode Mode, b *types.Block) ([]*types.Receipt, error) {
	if got := types.ComputeTxRoot(b.Txs); got != b.Header.TxRoot {
		return nil, fmt.Errorf("%w: tx root %s != header %s", ErrValidation, got, b.Header.TxRoot)
	}
	blockCtx := evm.BlockContext{
		Number:    b.Header.Number,
		Timestamp: b.Header.Timestamp,
		GasLimit:  b.Header.GasLimit,
		Coinbase:  b.Header.Coinbase,
		ChainID:   e.chainID,
	}
	out, err := e.Execute(mode, blockCtx, b.Txs)
	if err != nil {
		return nil, err
	}
	root, err := e.Commit(out.WriteSet)
	if err != nil {
		return nil, err
	}
	if root != b.Header.StateRoot {
		return nil, fmt.Errorf("%w: state root %s != header %s", ErrValidation, root, b.Header.StateRoot)
	}
	return out.Receipts, nil
}
