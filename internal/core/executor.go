package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/evm"
	"dmvcc/internal/fault"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// closedChan is a pre-closed channel for stale-incarnation fast paths.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// ErrTooManyAborts guards against livelock; it indicates a scheduler bug
// rather than an expected runtime condition.
var ErrTooManyAborts = errors.New("core: transaction exceeded the incarnation limit")

// maxIncarnations bounds re-executions per transaction.
const maxIncarnations = 1000

// Stats aggregates scheduler counters for one block execution.
type Stats struct {
	// Executions counts incarnations started (n transactions = n when no
	// aborts happen).
	Executions int64
	// Replays counts the incarnations among Executions that committed their
	// C-SAG's pre-run outcome instead of running the interpreter: every
	// cross-transaction read still returned what the pre-run had seen.
	Replays int64
	// Aborts counts non-deterministic aborts (stale reads, cascades).
	Aborts int64
	// EarlyPublishes counts writes made visible at release points.
	EarlyPublishes int64
	// DeltaPublishes counts commutative delta versions published.
	DeltaPublishes int64
	// BlockedReads counts reads that had to park on a pending version.
	BlockedReads int64
	// WakeEvents counts targeted wakeups delivered to parked waiters (the
	// PR 2 replacement for broadcast wakeAll; each is one channel close).
	WakeEvents int64
	// Requeues counts aborted transactions re-enqueued on the worker pool
	// for a fresh incarnation.
	Requeues int64
	// DispatchRuns counts batch hand-offs from the ready heap to workers
	// (each is one heap/lock round-trip); DispatchedTxs is the transactions
	// they covered, so DispatchedTxs/DispatchRuns is the mean run length.
	DispatchRuns  int64
	DispatchedTxs int64
	// Panics counts worker panics contained and converted into aborts.
	Panics int64
	// MaxIncarnation is the highest incarnation index any transaction
	// reached (0 when nothing aborted).
	MaxIncarnation int64
	// StallRecoveries counts watchdog forced-recovery rounds.
	StallRecoveries int64
	// Degraded marks a block whose parallel attempt tripped the circuit
	// breaker and fell back to the serial baseline; DegradeReason says why.
	Degraded      bool
	DegradeReason string
}

// RecordMetrics implements telemetry.Source: counters under the "core."
// prefix accumulate across blocks.
func (s Stats) RecordMetrics(r *telemetry.Registry) {
	r.Counter("core.executions").Add(s.Executions)
	r.Counter("core.replays").Add(s.Replays)
	r.Counter("core.aborts").Add(s.Aborts)
	r.Counter("core.early_publishes").Add(s.EarlyPublishes)
	r.Counter("core.delta_publishes").Add(s.DeltaPublishes)
	r.Counter("core.blocked_reads").Add(s.BlockedReads)
	r.Counter("core.wake_events").Add(s.WakeEvents)
	r.Counter("core.requeues").Add(s.Requeues)
	r.Counter("core.dispatch_runs").Add(s.DispatchRuns)
	r.Counter("core.dispatched_txs").Add(s.DispatchedTxs)
	r.Counter("core.panics").Add(s.Panics)
	r.Counter("core.stall_recoveries").Add(s.StallRecoveries)
	if s.Degraded {
		r.Counter("core.degraded_blocks").Inc()
	}
	if g := r.Gauge("core.max_incarnation"); s.MaxIncarnation > g.Value() {
		g.Set(s.MaxIncarnation)
	}
}

var _ telemetry.Source = Stats{}

type statCounters struct {
	executions      atomic.Int64
	replays         atomic.Int64
	aborts          atomic.Int64
	early           atomic.Int64
	delta           atomic.Int64
	blocked         atomic.Int64
	wakes           atomic.Int64
	requeues        atomic.Int64
	panics          atomic.Int64
	maxInc          atomic.Int64
	stallRecoveries atomic.Int64
}

func (s *statCounters) addBlocked() { s.blocked.Add(1) }
func (s *statCounters) addEarly()   { s.early.Add(1) }
func (s *statCounters) addDelta()   { s.delta.Add(1) }
func (s *statCounters) addWake()    { s.wakes.Add(1) }

// noteIncarnation tracks the highest incarnation any transaction reached.
func (s *statCounters) noteIncarnation(inc int) {
	for {
		cur := s.maxInc.Load()
		if int64(inc) <= cur || s.maxInc.CompareAndSwap(cur, int64(inc)) {
			return
		}
	}
}

func (s *statCounters) snapshot() Stats {
	return Stats{
		Executions:      s.executions.Load(),
		Replays:         s.replays.Load(),
		Aborts:          s.aborts.Load(),
		EarlyPublishes:  s.early.Load(),
		DeltaPublishes:  s.delta.Load(),
		BlockedReads:    s.blocked.Load(),
		WakeEvents:      s.wakes.Load(),
		Requeues:        s.requeues.Load(),
		Panics:          s.panics.Load(),
		MaxIncarnation:  s.maxInc.Load(),
		StallRecoveries: s.stallRecoveries.Load(),
	}
}

// Result is the outcome of executing one block with DMVCC.
type Result struct {
	Receipts []*types.Receipt
	WriteSet *state.WriteSet
	Stats    Stats
	// Traces are the per-transaction dependency traces of the committed
	// incarnations, consumed by the scheduling simulator.
	Traces []*TxTrace
	// WastedGas is the summed virtual service time (ExecCost units) of
	// every aborted incarnation: the partial gas consumed up to the abort
	// for incarnations killed mid-flight — never less than BaseCost per
	// abort, since dispatching alone costs that — and the full execution
	// cost for incarnations aborted after they completed. Invariant:
	// WastedGas >= Stats.Aborts * BaseCost.
	WastedGas uint64
}

// Options toggles DMVCC's design features for ablation studies. The zero
// value enables everything (the full protocol).
type Options struct {
	// DisableEarlyWrite publishes versions only at transaction finish,
	// removing early-write visibility (§IV-C).
	DisableEarlyWrite bool
	// DisableCommutative executes blind increments as ordinary
	// read-modify-writes, removing commutative write merging (§IV-D).
	DisableCommutative bool
	// DisableWriteVersioning makes write-write pairs conflict again: a
	// writer stalls until every earlier writer of the item finished, like a
	// single-version item lock (the behaviour DMVCC's access sequences
	// remove, §IV-D).
	DisableWriteVersioning bool
}

// Executor schedules block execution under DMVCC. It is reusable across
// blocks; each ExecuteBlock call is independent.
type Executor struct {
	reg      *sag.Registry
	threads  int
	opts     Options
	log      *eventlog.Log
	faults   *fault.Injector
	hard     Hardening
	maxBatch int // dispatch run-length cap override (0 = default; tests)
	gate     Gate
}

// SetLog attaches the scheduler event log to subsequent executions: while it
// is enabled every schedule-relevant action is appended to it, and the
// end-of-block C-SAG audit is attached to the block's record. A nil or
// disabled log costs one atomic load per potential event (pinned by
// BenchmarkEventsDisabled).
func (x *Executor) SetLog(l *eventlog.Log) { x.log = l }

// SetFaults attaches a fault injector to subsequent executions (chaos
// testing). A nil injector — the production configuration — costs one
// nil-check per injection point (pinned by BenchmarkFaultDisabled).
func (x *Executor) SetFaults(in *fault.Injector) { x.faults = in }

// SetHardening overrides the failure-containment thresholds (zero-value
// fields keep their defaults; see Hardening).
func (x *Executor) SetHardening(h Hardening) { x.hard = h }

// SetGate attaches a replay gate: every gated scheduler action (dispatch,
// read, publish, drop, abort, commit) waits for its recorded turn before
// performing, forcing the captured interleaving back onto the execution.
// Production runs leave it nil (one nil-check per gated action).
func (x *Executor) SetGate(g Gate) { x.gate = g }

// NewExecutor returns a DMVCC executor running on the given number of
// worker threads (EVM instances bound to cores, per the paper's setup).
func NewExecutor(reg *sag.Registry, threads int) *Executor {
	return NewExecutorOpts(reg, threads, Options{})
}

// NewExecutorOpts is NewExecutor with feature toggles.
func NewExecutorOpts(reg *sag.Registry, threads int, opts Options) *Executor {
	if threads < 1 {
		threads = 1
	}
	return &Executor{reg: reg, threads: threads, opts: opts}
}

// txRuntime is the mutable scheduling record of one transaction.
type txRuntime struct {
	idx  int
	tx   *types.Transaction
	csag *sag.CSAG

	mu        sync.Mutex
	inc       atomic.Int64
	abortCh   chan struct{}
	published []sag.ItemID
	readMarks []sag.ItemID
	started   bool // current incarnation was picked up by a worker
	finished  bool
	receipt   *types.Receipt
	trace     *TxTrace
}

// curInc returns the live incarnation number.
func (rt *txRuntime) curInc() int { return int(rt.inc.Load()) }

// abortChan returns the abort channel for incarnation inc (the current one;
// stale callers receive a closed channel).
func (rt *txRuntime) abortChan(inc int) chan struct{} {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if int(rt.inc.Load()) != inc {
		return closedChan
	}
	return rt.abortCh
}

// noteReadMark records that incarnation inc marked a read on id (so an
// abort can clear the stale mark). The slice is sized from the C-SAG
// prediction on first use; backing arrays are never reused across
// incarnations — the abort path iterates the previous incarnation's slices
// after releasing rt.mu.
func (rt *txRuntime) noteReadMark(inc int, id sag.ItemID) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if int(rt.inc.Load()) == inc {
		if rt.readMarks == nil {
			n := 4
			if c := rt.csag; c != nil {
				n = len(c.Reads) + 2
			}
			rt.readMarks = make([]sag.ItemID, 0, n)
		}
		rt.readMarks = append(rt.readMarks, id)
	}
}

// publish performs a versionWrite on behalf of incarnation inc, recording
// the published item for abort-time cleanup. It fails with ErrAborted if
// the incarnation is no longer current.
func (rt *txRuntime) publish(r *run, inc, worker int, id sag.ItemID, v u256.Int, delta, early bool) ([]victim, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if int(rt.inc.Load()) != inc {
		return nil, evm.ErrAborted
	}
	if rt.published == nil {
		n := 4
		if c := rt.csag; c != nil {
			n = len(c.Writes) + len(c.Deltas) + 2
		}
		rt.published = make([]sag.ItemID, 0, n)
	}
	rt.published = append(rt.published, id)
	return r.seq(id).versionWrite(rt.idx, inc, worker, v, delta, early), nil
}

// dropUnperformed marks a predicted write that never happened as dropped.
func (rt *txRuntime) dropUnperformed(r *run, inc int, id sag.ItemID) ([]victim, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if int(rt.inc.Load()) != inc {
		return nil, evm.ErrAborted
	}
	return r.seq(id).dropVersion(rt.idx, inc), nil
}

// complete records the final receipt and trace of incarnation inc.
func (rt *txRuntime) complete(r *run, inc, worker int, receipt *types.Receipt, trace *TxTrace) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if int(rt.inc.Load()) != inc {
		return false
	}
	rt.finished = true
	rt.receipt = receipt
	rt.trace = trace
	if lg := r.log; lg.Enabled() {
		lg.Record(eventlog.OpCommit, rt.idx, inc, worker, -1, sag.ItemID{}, u256.Int{})
	}
	return true
}

// seqShardCount stripes the item→sequence index so concurrent accessors of
// unrelated items never contend on one global lock. Must be a power of two.
const seqShardCount = 64

// seqShard is one stripe of the item→sequence map. Sequences are carved
// from a per-shard slab (chunked value array) instead of allocated one by
// one; slab pointers stay valid because chunks are never reallocated, only
// replaced when exhausted.
type seqShard struct {
	mu   sync.RWMutex
	m    map[sag.ItemID]*sequence
	slab []sequence
}

// seqSlabChunk is the slab granularity (sequences per chunk).
const seqSlabChunk = 64

// newSeqLocked carves one sequence from the shard slab. Called with the
// shard write lock held.
func (sh *seqShard) newSeqLocked(id sag.ItemID) *sequence {
	if len(sh.slab) == 0 {
		sh.slab = make([]sequence, seqSlabChunk)
	}
	s := &sh.slab[0]
	sh.slab = sh.slab[1:]
	s.id = id
	return s
}

// shardIndex hashes an ItemID onto a shard (FNV-1a over the kind, the
// address and the slot bytes that actually vary: storage slots are usually
// small integers or hash outputs, so the tail bytes discriminate).
func shardIndex(id sag.ItemID) uint32 {
	h := uint32(2166136261)
	h = (h ^ uint32(id.Kind)) * 16777619
	for _, b := range id.Addr {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(id.Slot[0])) * 16777619
	h = (h ^ uint32(id.Slot[15])) * 16777619
	h = (h ^ uint32(id.Slot[30])) * 16777619
	h = (h ^ uint32(id.Slot[31])) * 16777619
	return h & (seqShardCount - 1)
}

// run is the state of one in-flight block execution.
type run struct {
	x     *Executor
	reg   *sag.Registry
	snap  state.Reader
	block evm.BlockContext
	rts   []*txRuntime
	sched *pool
	wg    sync.WaitGroup

	shards [seqShardCount]seqShard

	codeMu sync.Mutex
	codes  map[types.Hash][]byte

	opts   Options
	log    *eventlog.Log
	faults *fault.Injector
	hard   Hardening
	gate   Gate

	stats    statCounters
	wasted   atomic.Uint64
	cascades atomic.Int32 // cascade ids handed out to abort events
	errMu    sync.Mutex
	err      error

	// Failure containment (see harden.go): progress feeds the stall
	// watchdog; cancelled flags a circuit-breaker drain (aborts stop
	// re-enqueueing, fresh dispatches return at entry); reason is the trip
	// cause.
	progress  atomic.Int64
	cancelled atomic.Bool
	reasonMu  sync.Mutex
	reason    string

	// Per-worker committed-snapshot read caches (see workerCache).
	cacheMu sync.Mutex
	caches  map[int]*workerCache
}

// seq returns (creating on demand) the access sequence of id.
func (r *run) seq(id sag.ItemID) *sequence {
	sh := &r.shards[shardIndex(id)]
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok = sh.m[id]; ok {
		return s
	}
	s = sh.newSeqLocked(id)
	s.onWake = r.noteWake
	s.log = r.log
	sh.m[id] = s
	return s
}

// noteWake counts a targeted wakeup. Invoked under the sequence lock, so it
// only bumps an atomic.
func (r *run) noteWake(readerTx, blockedTx, mutTx int) { r.stats.addWake() }

// forEachSeq visits every sequence (single-threaded commit phase only).
func (r *run) forEachSeq(fn func(id sag.ItemID, s *sequence)) {
	for i := range r.shards {
		for id, s := range r.shards[i].m {
			fn(id, s)
		}
	}
}

// storeCode keeps deployed code bytes addressable by hash.
func (r *run) storeCode(code []byte) types.Hash {
	h := types.Keccak(code)
	r.codeMu.Lock()
	r.codes[h] = code
	r.codeMu.Unlock()
	return h
}

// codeOf resolves code bytes deployed earlier in this block.
func (r *run) codeOf(h types.Hash) []byte {
	r.codeMu.Lock()
	defer r.codeMu.Unlock()
	return r.codes[h]
}

// fail records the first fatal scheduler error and cancels the run: without
// the drain, readers parked on the failed transaction's never-published
// predicted writes would wait forever and wg.Wait would never return (the
// pre-hardening goroutine leak).
func (r *run) fail(err error) {
	r.errMu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.errMu.Unlock()
	if r.cancelled.CompareAndSwap(false, true) {
		r.drainAll(eventlog.AbortForced)
	}
}

// abortWork is one worklist entry of a cascade: the victim incarnation, the
// transaction whose publish (or own abort) invalidated it, and the parent
// victim within the cascade tree (-1 for the root).
type abortWork struct {
	v      victim
	cause  int
	parent int
}

// abortClass classifies one worklist entry: roots from the stale read's
// provenance (or the forced class), worklist descendants as cascade
// collateral.
func abortClass(w abortWork, rootClass eventlog.AbortClass) eventlog.AbortClass {
	switch {
	case w.parent >= 0:
		return eventlog.AbortCascade
	case rootClass != 0:
		return rootClass
	case !w.v.predicted:
		return eventlog.AbortUnpredictedWrite
	case w.v.readSrc < 0:
		return eventlog.AbortSnapshotStale
	default:
		return eventlog.AbortStaleVersion
	}
}

// abort implements Algorithm 4 plus cascade processing: each victim's
// incarnation is retired, its published versions dropped (their stale
// readers joining the worklist in turn), its read marks cleared, and a
// fresh incarnation re-enqueued on the scheduler. The cascade is processed
// iteratively off a worklist, so an arbitrarily deep dependency chain costs
// constant goroutine stack. cause is the transaction whose publish
// triggered the first victim; cascading victims are attributed to the
// victim whose dropped versions they had read.
func (r *run) abort(first victim, cause int) {
	r.abortClassed(first, cause, 0)
}

// abortClassed is abort with a forced root classification (forced aborts:
// fault injection, watchdog recovery, breaker drains); rootClass 0 derives
// the class from the stale read's provenance as usual.
func (r *run) abortClassed(first victim, cause int, rootClass eventlog.AbortClass) {
	work := []abortWork{{v: first, cause: cause, parent: -1}}
	cascade := -1 // cascade id, allocated on the first real victim
	for len(work) > 0 {
		w := work[len(work)-1]
		work = work[:len(work)-1]
		v := w.v

		rt := r.rts[v.tx]
		if g := r.gate; g != nil {
			// Replay: claim the victim's recorded abort slot before retiring
			// it. A false return means the incarnation is already retired
			// (a concurrent cascade won) — same outcome as the inc check.
			if !g.Await(eventlog.OpAbort, v.tx, v.inc, sag.ItemID{}, func() bool { return rt.curInc() != v.inc }) {
				continue
			}
		}
		rt.mu.Lock()
		if int(rt.inc.Load()) != v.inc {
			rt.mu.Unlock()
			if g := r.gate; g != nil {
				g.Done()
			}
			continue // already re-incarnated
		}
		published := rt.published
		readMarks := rt.readMarks
		started := rt.started
		oldInc := v.inc
		newInc := oldInc + 1
		var wasted uint64
		if rt.finished && rt.receipt != nil {
			// The incarnation had fully executed; all of its work is wasted.
			// (Incarnations killed mid-flight account their partial gas
			// themselves when they observe the abort.)
			wasted = ExecCost(rt.receipt.GasUsed, evm.IntrinsicGas(rt.tx.Data))
		}
		rt.inc.Store(int64(newInc))
		close(rt.abortCh)
		rt.abortCh = make(chan struct{})
		rt.published = nil
		rt.readMarks = nil
		rt.started = false
		rt.finished = false
		rt.receipt = nil
		if lg := r.log; lg.Enabled() {
			// One event per retired incarnation, stamped in the same section
			// that retires it, so abort events always account for 100% of
			// Stats.Aborts.
			if cascade < 0 {
				cascade = int(r.cascades.Add(1)) - 1
			}
			lg.Append(eventlog.Event{
				Op: eventlog.OpAbort, Tx: int32(v.tx), Inc: int32(oldInc), Worker: -1,
				Src: int32(w.cause), Item: v.item, Gas: wasted,
				Abort: &eventlog.AbortInfo{
					Class: abortClass(w, rootClass), Cascade: int32(cascade), Parent: int32(w.parent),
					WriterInc: int32(v.writerInc), ReadSrc: int32(v.readSrc),
				},
			})
		}
		rt.mu.Unlock()
		if g := r.gate; g != nil {
			g.Done()
		}

		r.stats.aborts.Add(1)
		r.stats.noteIncarnation(newInc)
		r.noteProgress()
		if wasted > 0 {
			r.noteWasted(wasted)
		}

		// Drop visible writes; push cascading victims onto the worklist.
		// Each drop is individually gated: cleanup must interleave with
		// other transactions' reads exactly as captured (dead is nil — the
		// incarnation is already retired, the drops must always perform).
		for _, id := range published {
			if g := r.gate; g != nil {
				g.Await(eventlog.OpDrop, v.tx, oldInc, id, nil)
			}
			cvs := r.seq(id).dropVersion(v.tx, oldInc)
			if g := r.gate; g != nil {
				g.Done()
			}
			for _, cv := range cvs {
				work = append(work, abortWork{v: cv, cause: v.tx, parent: v.tx})
			}
		}
		for _, id := range readMarks {
			r.seq(id).resetRead(v.tx, oldInc)
		}

		if r.cancelled.Load() {
			continue // run is being drained; nothing relaunches
		}
		if limit := r.hard.MaxTxIncarnations; limit > 0 && newInc >= limit {
			r.trip(fmt.Sprintf("tx %d reached the incarnation cap (%d)", v.tx, limit))
			continue
		}
		if newInc >= maxIncarnations {
			r.fail(fmt.Errorf("%w: tx %d", ErrTooManyAborts, v.tx))
			continue
		}
		if !started {
			// The retired incarnation was still queued: its pending pool
			// dispatch will pick up the new incarnation. Requeueing too would
			// double-dispatch and run the same incarnation twice concurrently
			// (forced drains are the only aborters that hit unstarted txs).
			continue
		}
		// Relaunch: re-enqueue on the worker pool (no goroutine spawn).
		r.stats.requeues.Add(1)
		r.wg.Add(1)
		r.sched.enqueue(v.tx)
	}
}

// runIncarnation runs one incarnation of a transaction to completion or
// abort. Invoked by pool workers; the caller holds an execution slot for
// the whole call (minus parked stretches, which yield it). worker is the
// stable identity of the executing pool goroutine (telemetry track id).
func (r *run) runIncarnation(rt *txRuntime, worker int) {
	defer r.wg.Done()
	if r.cancelled.Load() {
		return // run is being drained; don't start new work
	}
	rt.mu.Lock()
	inc := int(rt.inc.Load())
	rt.started = true
	if lg := r.log; lg.Enabled() {
		lg.Record(eventlog.OpDispatch, rt.idx, inc, worker, -1, sag.ItemID{}, u256.Int{})
	}
	rt.mu.Unlock()
	if g := r.gate; g != nil {
		// Replay: wait for this incarnation's recorded dispatch turn. A
		// false return means it was retired while queued — the aborter
		// already arranged the successor's dispatch, so just return.
		if !g.Await(eventlog.OpDispatch, rt.idx, inc, sag.ItemID{}, func() bool { return rt.curInc() != inc }) {
			return
		}
		g.Done()
	}
	var acc *accessor
	// Panic containment: a panicking opcode handler (or an injected
	// fault.WorkerPanic) must not kill the pool worker or hang wg.Wait; the
	// incarnation is retired through the abort path and relaunched.
	defer func() {
		if p := recover(); p != nil {
			r.containPanic(rt, inc, acc, p)
		}
		if acc != nil {
			r.putAccessor(acc)
		}
	}()
	if in := r.faults; in.Enabled() {
		if d := in.DelayFor(fault.ExecDelay, int64(r.block.Number), rt.idx, inc); d > 0 {
			// Interruptible: a forced abort (watchdog, breaker) wakes the
			// sleeper instead of waiting the delay out.
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-rt.abortChan(inc):
				t.Stop()
			}
		}
	}
	r.stats.executions.Add(1)
	acc = newAccessor(r, rt, inc)
	acc.worker = worker
	acc.snapCache = r.workerCacheFor(worker)

	receipt, err := acc.replay()
	if receipt != nil {
		r.stats.replays.Add(1)
	} else if err == nil {
		receipt, err = evm.ApplyTransaction(acc, r.block, rt.tx, rt.idx, acc)
	}
	if err != nil {
		if errors.Is(err, evm.ErrAborted) {
			// Work thrown away with this incarnation: the partial gas consumed
			// up to the abort, floored at the dispatch cost.
			r.notePartialWaste(rt, inc, acc)
			return // the aborter relaunches
		}
		r.fail(fmt.Errorf("core: tx %d: %w", rt.idx, err))
		return
	}
	if !acc.finish(receipt) {
		// Aborted during finish; relaunch in flight. The incarnation never
		// reached complete(), so the abort path did not account its work.
		r.notePartialWaste(rt, inc, acc)
		return
	}
	r.noteProgress()
}

// ExecuteBlock runs the transactions of a block in parallel under DMVCC
// and returns the receipts (in block order), the net write set ready for
// DB.Commit, and scheduler statistics. csags may contain nils (missing
// SAGs are handled fully dynamically, per the paper's workflow).
func (x *Executor) ExecuteBlock(snap state.Reader, block evm.BlockContext, txs []*types.Transaction, csags []*sag.CSAG) (*Result, error) {
	r := &run{
		x:      x,
		reg:    x.reg,
		snap:   snap,
		block:  block,
		codes:  make(map[types.Hash][]byte),
		opts:   x.opts,
		log:    x.log,
		faults: x.faults,
		hard:   x.hard.withDefaults(),
		gate:   x.gate,
	}
	if lg := x.log; lg.Enabled() {
		lg.Begin(int64(block.Number), len(txs))
	}
	if in := x.faults; in.Enabled() {
		// C-SAG corruption faults: deterministically drop predicted entries
		// (deep copies; the caller's graphs are never touched).
		csags = fault.CorruptCSAGs(in, int64(block.Number), csags)
	}
	// One contiguous slab for the runtimes: n pointer-stable records in a
	// single allocation instead of n boxes.
	slab := make([]txRuntime, len(txs))
	r.rts = make([]*txRuntime, len(txs))
	for i, tx := range txs {
		var c *sag.CSAG
		if i < len(csags) {
			c = csags[i]
		}
		rt := &slab[i]
		rt.idx = i
		rt.tx = tx
		rt.csag = c
		rt.abortCh = make(chan struct{})
		r.rts[i] = rt
	}

	// Pre-size the sequence shards from the C-SAG predicted access counts
	// (repeat items across transactions overestimate, which is fine), then
	// initialize the access sequences (Algorithm 1 line 1).
	var sizes [seqShardCount]int
	for _, rt := range r.rts {
		if rt.csag == nil {
			continue
		}
		for id := range rt.csag.Reads {
			sizes[shardIndex(id)]++
		}
		for id := range rt.csag.Writes {
			sizes[shardIndex(id)]++
		}
		for id := range rt.csag.Deltas {
			sizes[shardIndex(id)]++
		}
	}
	for i := range r.shards {
		r.shards[i].m = make(map[sag.ItemID]*sequence, sizes[i])
	}
	for i, rt := range r.rts {
		if rt.csag == nil {
			continue
		}
		for id := range rt.csag.Reads {
			r.seq(id).addPredicted(i, kindRead)
		}
		for id := range rt.csag.Writes {
			k := kindWrite
			if _, alsoRead := rt.csag.Reads[id]; alsoRead {
				k = kindReadWrite
			}
			r.seq(id).addPredicted(i, k)
		}
		for id := range rt.csag.Deltas {
			r.seq(id).addPredicted(i, kindDelta)
		}
	}

	// Execution phase: transactions flow index-ordered through a bounded
	// worker pool (the paper's N EVM instances); aborts re-enqueue.
	r.sched = newPool(x.threads, func(idx, worker int) { r.runIncarnation(r.rts[idx], worker) })
	if x.maxBatch > 0 {
		r.sched.maxBatch = x.maxBatch
	}
	r.wg.Add(len(txs))
	stopWatchdog := r.startWatchdog()
	r.sched.enqueueAll(len(txs))
	r.wg.Wait()
	stopWatchdog()
	r.sched.shutdown()

	if r.err != nil {
		return nil, r.err
	}
	if r.cancelled.Load() {
		// The circuit breaker tripped mid-flight: every live incarnation was
		// drained and its versions discarded. Degrade to the serial baseline
		// (or surface the trip when fallback is disabled).
		reason := r.tripReason()
		if reason == "" {
			reason = "cancelled"
		}
		if r.hard.DisableFallback {
			return nil, fmt.Errorf("%w: %s", ErrCircuitBreaker, reason)
		}
		return r.degradeToSerial(reason)
	}

	// Commit phase: flush the last version of every sequence (Algorithm 1
	// line 20).
	ws := state.NewWriteSet()
	r.forEachSeq(func(id sag.ItemID, s *sequence) {
		base := snapFor(snap, id)
		val, wrote := s.finalValue(base)
		if !wrote {
			return
		}
		switch id.Kind {
		case sag.KindStorage:
			ws.SetStorage(id.Addr, id.Slot, val)
		case sag.KindBalance:
			ws.Balances[id.Addr] = val
		case sag.KindNonce:
			ws.Nonces[id.Addr] = val.Uint64()
		case sag.KindCode:
			if code := r.codeOf(types.HashFromWord(val)); code != nil {
				ws.Codes[id.Addr] = code
			}
		}
	})

	receipts := make([]*types.Receipt, len(txs))
	traces := make([]*TxTrace, len(txs))
	for i, rt := range r.rts {
		rt.mu.Lock()
		receipts[i] = rt.receipt
		traces[i] = rt.trace
		rt.mu.Unlock()
		if receipts[i] == nil {
			return nil, fmt.Errorf("core: tx %d finished without a receipt", i)
		}
	}
	if lg := x.log; lg.Enabled() {
		// Score the C-SAG predictions against the committed access logs and
		// attach the audit to the block's record. Entirely off the hot path:
		// the inputs already exist (predictions from the analysis, actual
		// sets from the committed traces, aborts from the log itself).
		n := int64(block.Number)
		lg.AddReport(n, telemetry.AuditBlock(n, auditPredictions(len(txs), csags), auditAccessLogs(traces, receipts), lg.Events(n)))
	}
	return &Result{
		Receipts:  receipts,
		WriteSet:  ws,
		Stats:     r.statsSnapshot(),
		Traces:    traces,
		WastedGas: r.wasted.Load(),
	}, nil
}

// statsSnapshot materializes the block's Stats, folding in the worker
// pool's dispatch telemetry.
func (r *run) statsSnapshot() Stats {
	s := r.stats.snapshot()
	if r.sched != nil {
		s.DispatchRuns, s.DispatchedTxs = r.sched.runStats()
	}
	return s
}

// snapFor reads an item's committed value from the snapshot.
func snapFor(snap state.Reader, id sag.ItemID) u256.Int {
	switch id.Kind {
	case sag.KindStorage:
		return snap.Storage(id.Addr, id.Slot)
	case sag.KindBalance:
		return snap.Balance(id.Addr)
	case sag.KindNonce:
		return u256.NewUint64(snap.Nonce(id.Addr))
	default:
		return u256.Int{}
	}
}
