package core

import (
	"errors"
	"fmt"
	"time"

	"dmvcc/internal/baseline"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// ErrCircuitBreaker reports a breaker trip when serial fallback is disabled.
var ErrCircuitBreaker = errors.New("core: circuit breaker tripped")

// Default hardening thresholds. The incarnation cap is far above anything a
// legitimate workload reaches (contended blocks abort single digits per tx)
// yet far below the hard livelock bound, so a pathological cascade degrades
// to serial long before ErrTooManyAborts; the watchdog deadline is generous
// enough that no real block ever meets it without a genuine stall.
const (
	defaultMaxTxIncarnations = 64
	defaultStallTimeout      = 10 * time.Second
	defaultStallRecoveries   = 2
)

// Hardening configures the executor's failure-containment machinery: the
// abort-storm circuit breaker and the per-block stall watchdog. The zero
// value selects the defaults (hardening on); it never changes the result of
// a healthy block — only how pathological ones terminate.
type Hardening struct {
	// MaxTxIncarnations trips the breaker when any single transaction
	// reaches this many re-executions (0 = default 64, <0 = no cap below
	// the hard livelock bound).
	MaxTxIncarnations int
	// WastedGasBudget trips the breaker when the block's cumulative wasted
	// gas (ExecCost units) exceeds it (0 = unlimited).
	WastedGasBudget uint64
	// StallTimeout is the watchdog's no-progress deadline (0 = default 10s,
	// <0 = watchdog disabled).
	StallTimeout time.Duration
	// StallRecoveries is how many forced-recovery rounds (abort every live
	// incarnation, relaunch) the watchdog attempts before tripping the
	// breaker (0 = default 2).
	StallRecoveries int
	// DisableFallback turns breaker trips into an ErrCircuitBreaker error
	// instead of degrading to the serial baseline (strict deployments,
	// tests that must observe the trip).
	DisableFallback bool
}

// withDefaults resolves the zero-value conventions.
func (h Hardening) withDefaults() Hardening {
	if h.MaxTxIncarnations == 0 {
		h.MaxTxIncarnations = defaultMaxTxIncarnations
	}
	if h.StallTimeout == 0 {
		h.StallTimeout = defaultStallTimeout
	}
	if h.StallRecoveries == 0 {
		h.StallRecoveries = defaultStallRecoveries
	}
	return h
}

// trip fires the abort-storm circuit breaker: the first caller wins, records
// the reason, and drains every live incarnation so wg.Wait returns promptly.
// With cancellation set, aborts stop re-enqueueing and freshly dispatched
// incarnations return at entry, so the drain converges. The block then
// either falls back to the serial baseline or fails with ErrCircuitBreaker.
func (r *run) trip(reason string) {
	if !r.cancelled.CompareAndSwap(false, true) {
		return
	}
	r.reasonMu.Lock()
	r.reason = reason
	r.reasonMu.Unlock()
	if lg := r.log; lg.Enabled() {
		// Breaker trips make the schedule non-replayable (the serial
		// fallback has no parallel schedule); the marker tells the capture
		// layer to refuse the block.
		lg.Record(eventlog.OpBreaker, -1, 0, -1, -1, sag.ItemID{}, u256.Int{})
		lg.SetDegraded(int64(r.block.Number), reason)
	}
	r.drainAll(eventlog.AbortForced)
}

// tripReason returns the breaker reason ("" if it never fired).
func (r *run) tripReason() string {
	r.reasonMu.Lock()
	defer r.reasonMu.Unlock()
	return r.reason
}

// noteWasted accumulates wasted gas and checks the breaker budget.
func (r *run) noteWasted(w uint64) {
	total := r.wasted.Add(w)
	if b := r.hard.WastedGasBudget; b > 0 && total > b {
		r.trip(fmt.Sprintf("wasted-gas %d exceeds budget %d", total, b))
	}
}

// noteProgress bumps the watchdog's progress counter. Called on every
// publish, completion, and processed abort victim — anything a live
// scheduler does; a counter frozen for a full deadline is a genuine stall.
func (r *run) noteProgress() { r.progress.Add(1) }

// drainAll force-aborts every unfinished live incarnation through the
// normal abort path (accounting stays consistent; forensic records carry the
// given class). With cancellation set this retires them for good; without
// (watchdog recovery) each aborted transaction relaunches fresh — spurious
// aborts are always correctness-safe under DMVCC.
func (r *run) drainAll(class eventlog.AbortClass) {
	for _, rt := range r.rts {
		rt.mu.Lock()
		inc := int(rt.inc.Load())
		fin := rt.finished
		rt.mu.Unlock()
		if fin {
			continue
		}
		r.abortClassed(victim{tx: rt.idx, inc: inc, readSrc: -1}, rt.idx, class)
	}
}

// containPanic converts a panicking incarnation into a deterministic failed
// incarnation: the worker survives, the incarnation is retired through the
// abort path (which relaunches it), and its partial work is accounted as
// wasted. Injected panics (fault.WorkerPanic) throw between instructions
// with no scheduler locks held; genuine panics from deeper inside the
// machinery are contained best-effort the same way.
func (r *run) containPanic(rt *txRuntime, inc int, acc *accessor, p any) {
	r.stats.panics.Add(1)
	r.notePartialWaste(rt, inc, acc)
	r.abortClassed(victim{tx: rt.idx, inc: inc, readSrc: -1}, rt.idx, eventlog.AbortInjected)
}

// notePartialWaste accounts the work thrown away by an incarnation that died
// mid-flight. Its abort event is stamped by the aborter, which can run on
// either side of this; readers join the two on (tx, inc).
func (r *run) notePartialWaste(rt *txRuntime, inc int, acc *accessor) {
	w := wastedOf(acc)
	if lg := r.log; lg.Enabled() {
		lg.Append(eventlog.Event{Op: eventlog.OpWasted, Tx: int32(rt.idx), Inc: int32(inc), Worker: -1, Src: -1, Gas: w})
	}
	r.noteWasted(w)
}

// wastedOf is the partial-progress waste of an incarnation that died
// mid-flight, floored at the dispatch cost.
func wastedOf(acc *accessor) uint64 {
	if acc != nil && acc.offset > BaseCost {
		return acc.offset
	}
	return BaseCost
}

// startWatchdog launches the stall watchdog (unless disabled) and returns
// the join function ExecuteBlock calls after wg.Wait — the watchdog must
// have exited before the lock-free commit phase walks the sequences.
func (r *run) startWatchdog() func() {
	if r.hard.StallTimeout <= 0 {
		return func() {}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.watchdog(stop)
	}()
	return func() {
		close(stop)
		<-done
	}
}

// watchdog is the per-block stall detector: if the progress counter freezes
// for a full deadline, it dumps pool + sequence diagnostics into the event
// log and force-aborts every live incarnation (they relaunch
// fresh). After StallRecoveries fruitless rounds it trips the breaker.
func (r *run) watchdog(stop <-chan struct{}) {
	d := r.hard.StallTimeout
	timer := time.NewTimer(d)
	defer timer.Stop()
	last := int64(-1)
	attempt := 0
	for {
		select {
		case <-stop:
			return
		case <-timer.C:
		}
		if cur := r.progress.Load(); cur != last {
			last = cur
			timer.Reset(d)
			continue
		}
		if r.cancelled.Load() {
			return
		}
		attempt++
		r.stats.stallRecoveries.Add(1)
		if lg := r.log; lg.Enabled() {
			// Watchdog recovery rounds are wall-clock driven, not schedule
			// driven — a capture containing one is refused for replay.
			lg.Record(eventlog.OpWatchdog, -1, attempt, -1, -1, sag.ItemID{}, u256.Int{})
			lg.AddReport(int64(r.block.Number), r.stallReport(attempt))
		}
		if attempt > r.hard.StallRecoveries {
			r.trip(fmt.Sprintf("stall: no scheduler progress after %d forced recoveries", attempt-1))
			return
		}
		r.drainAll(eventlog.AbortWatchdog)
		last = r.progress.Load()
		timer.Reset(d)
	}
}

// stallReport snapshots the scheduler for the watchdog's diagnostic dump:
// pool occupancy, unfinished transactions, and every parked waiter with the
// item and writer it is stuck behind.
func (r *run) stallReport(attempt int) telemetry.StallReport {
	running, ready, resume, idle := r.sched.stateSnapshot()
	rep := telemetry.StallReport{
		Block:       int64(r.block.Number),
		Attempt:     attempt,
		Progress:    r.progress.Load(),
		Running:     running,
		ReadyTasks:  ready,
		Resumers:    resume,
		IdleWorkers: idle,
	}
	for _, rt := range r.rts {
		rt.mu.Lock()
		inc := int(rt.inc.Load())
		fin := rt.finished
		rt.mu.Unlock()
		if !fin {
			rep.Pending = append(rep.Pending, telemetry.StallTx{Tx: rt.idx, Inc: inc})
		}
	}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		for id, s := range sh.m {
			s.mu.Lock()
			for _, w := range s.waiters {
				rep.Waiters = append(rep.Waiters, telemetry.StallWaiter{
					Item:      id.Label(),
					ReaderTx:  w.readerTx,
					BlockedOn: w.blockedTx,
				})
			}
			s.mu.Unlock()
		}
		sh.mu.RUnlock()
	}
	return rep
}

// degradeToSerial is the breaker's landing path: the parallel attempt has
// been fully drained and its versions discarded; the block re-executes on
// the untouched snapshot through the serial baseline, whose write set and
// receipts are the reference semantics — the committed root is byte-
// identical to serial by construction (Theorem 1's fallback case). Parallel-
// phase statistics are preserved so the storm stays observable; traces are
// nil (there is no parallel schedule to simulate).
func (r *run) degradeToSerial(reason string) (*Result, error) {
	res, err := baseline.ExecuteSerial(r.snap, r.block, r.txsOf())
	if err != nil {
		return nil, fmt.Errorf("core: serial fallback after %s: %w", reason, err)
	}
	stats := r.statsSnapshot()
	stats.Degraded = true
	stats.DegradeReason = reason
	return &Result{
		Receipts:  res.Receipts,
		WriteSet:  res.WriteSet,
		Stats:     stats,
		WastedGas: r.wasted.Load(),
	}, nil
}

// txsOf recovers the block's transaction slice from the runtimes.
func (r *run) txsOf() []*types.Transaction {
	txs := make([]*types.Transaction, len(r.rts))
	for i, rt := range r.rts {
		txs[i] = rt.tx
	}
	return txs
}
