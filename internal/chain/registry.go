package chain

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/evm"
	"dmvcc/internal/fault"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
)

// Mode names an execution scheme; it is the key under which a Scheduler is
// registered. The zero value is invalid.
type Mode string

// The schemes compared in the paper, registered by this package.
const (
	ModeSerial Mode = "serial"
	ModeDAG    Mode = "dag"
	ModeOCC    Mode = "occ"
	ModeDMVCC  Mode = "dmvcc"
)

// String implements fmt.Stringer.
func (m Mode) String() string { return string(m) }

// ErrUnknownMode reports a Mode with no registered scheduler.
var ErrUnknownMode = errors.New("chain: unknown execution mode")

// ExecContext carries everything a scheduler needs to execute one block.
// The snapshot is the committed pre-state; schedulers must not mutate it
// (they return a WriteSet for the engine to commit).
type ExecContext struct {
	// State is the committed snapshot the block executes against.
	State state.Reader
	// Registry resolves contract P-SAGs (analysis-aware schedulers).
	Registry *sag.Registry
	// Analyzer refines P-SAGs into C-SAGs against State.
	Analyzer *sag.Analyzer
	// Block is the environment of the block being executed.
	Block evm.BlockContext
	// Txs are the block's transactions in block order.
	Txs []*types.Transaction
	// Threads is the worker parallelism for parallel schemes.
	Threads int
	// CSAGs optionally carries pre-computed analyses (a transaction pool's
	// cached C-SAGs, or a pipeline's offline stage). A non-nil slice tells
	// analysis-aware schedulers to skip re-analysis; nil entries within it
	// fall back to fully dynamic handling. Schedulers that do not consume
	// analyses ignore it.
	CSAGs []*sag.CSAG
	// Log, when non-nil and enabled, receives the DMVCC schedule as one
	// ordered event log per block (see internal/eventlog): the single record
	// behind the Perfetto export, critical path, conflict post-mortem, C-SAG
	// audit and deterministic replay. Other schedulers ignore it.
	Log *eventlog.Log
	// Metrics, when non-nil, receives the engine-level latency and counter
	// observations of this execution.
	Metrics *telemetry.Registry
	// Faults, when non-nil and active, injects deterministic faults into the
	// execution (chaos testing). Only the DMVCC scheduler consumes it; the
	// serial baseline never injects, so degraded blocks always heal.
	Faults *fault.Injector
	// Harden overrides the DMVCC failure-containment thresholds (nil keeps
	// the defaults).
	Harden *core.Hardening
	// Gate, when non-nil, forces a previously recorded interleaving back
	// onto the DMVCC execution (deterministic replay; see core.Gate).
	Gate core.Gate
}

// Scheduler is a pluggable block-execution engine. Implementations register
// themselves with RegisterScheduler (typically from an init function), after
// which every consumer — the chain engine, the benchmarks, the network
// simulator, both CLIs — picks them up without further wiring.
type Scheduler interface {
	// Name returns the registry key (also the CLI spelling).
	Name() string
	// Execute runs one block and returns its outcome without committing.
	Execute(ExecContext) (*ExecOut, error)
	// Makespan computes the virtual-time makespan of an execution produced
	// by this scheduler on the given number of worker threads, under the
	// scheduler's own scheduling model.
	Makespan(out *ExecOut, threads int) (uint64, error)
}

// OfflineAnalyzer is an optional Scheduler capability: producing, ahead of
// execution, the analyses Execute would otherwise compute on the critical
// path. The pipelined block executor uses it to overlap block N+1's
// analysis with block N's execution. Entries already present in ctx.CSAGs
// are reused; nil holes (stale or missing pool analyses) are filled.
type OfflineAnalyzer interface {
	AnalyzeOffline(ExecContext) ([]*sag.CSAG, error)
}

// schedEntry is one registered scheduler with its presentation rank.
type schedEntry struct {
	s    Scheduler
	rank int
	seq  int
}

var (
	schedMu    sync.RWMutex
	schedulers = make(map[Mode]schedEntry)
	schedSeq   int
)

// RegisterScheduler adds a scheduler to the registry under its Name. rank
// orders presentation (Modes, figure rows); lower ranks print first.
// Registering an empty or duplicate name is an error.
func RegisterScheduler(rank int, s Scheduler) error {
	name := Mode(s.Name())
	if name == "" {
		return errors.New("chain: scheduler with empty name")
	}
	schedMu.Lock()
	defer schedMu.Unlock()
	if _, dup := schedulers[name]; dup {
		return fmt.Errorf("chain: scheduler %q already registered", name)
	}
	schedulers[name] = schedEntry{s: s, rank: rank, seq: schedSeq}
	schedSeq++
	return nil
}

// MustRegisterScheduler is RegisterScheduler for init-time use.
func MustRegisterScheduler(rank int, s Scheduler) {
	if err := RegisterScheduler(rank, s); err != nil {
		panic(err)
	}
}

// unregisterScheduler removes a registration (tests only).
func unregisterScheduler(mode Mode) {
	schedMu.Lock()
	defer schedMu.Unlock()
	delete(schedulers, mode)
}

// SchedulerFor resolves a mode to its registered scheduler.
func SchedulerFor(mode Mode) (Scheduler, error) {
	schedMu.RLock()
	defer schedMu.RUnlock()
	e, ok := schedulers[mode]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownMode, string(mode))
	}
	return e.s, nil
}

// Modes lists every registered scheme in presentation order.
func Modes() []Mode {
	schedMu.RLock()
	defer schedMu.RUnlock()
	modes := make([]Mode, 0, len(schedulers))
	for m := range schedulers {
		modes = append(modes, m)
	}
	sort.Slice(modes, func(i, j int) bool {
		a, b := schedulers[modes[i]], schedulers[modes[j]]
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		return a.seq < b.seq
	})
	return modes
}

// GasCostsFor derives the per-transaction virtual execution costs the
// scheduling simulator consumes: each receipt's gas net of the intrinsic
// portion charged before the VM runs. Every scheduler assembles its ExecOut
// through this single helper (via finish), so the cost model cannot drift
// between schemes.
func GasCostsFor(receipts []*types.Receipt, txs []*types.Transaction) []uint64 {
	costs := make([]uint64, len(receipts))
	for i, r := range receipts {
		costs[i] = core.ExecCost(r.GasUsed, evm.IntrinsicGas(txs[i].Data))
	}
	return costs
}

// finish fills the ExecOut fields common to every scheduler — receipts,
// write set, and the simulator's gas costs — and returns out.
func (o *ExecOut) finish(receipts []*types.Receipt, ws *state.WriteSet, txs []*types.Transaction) *ExecOut {
	o.Receipts = receipts
	o.WriteSet = ws
	o.GasCosts = GasCostsFor(receipts, txs)
	return o
}
