package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one pipeline stage of the node: offline C-SAG analysis, block
// execution, and the (possibly asynchronous) authenticated commit.
type Stage uint8

// Pipeline stages, in chain order.
const (
	StageAnalysis Stage = iota
	StageExecution
	StageCommit
	// NumStages sizes per-stage arrays.
	NumStages
)

// String implements fmt.Stringer.
func (s Stage) String() string {
	switch s {
	case StageAnalysis:
		return "analysis"
	case StageExecution:
		return "execution"
	case StageCommit:
		return "commit"
	default:
		return "unknown"
	}
}

// Stages lists the pipeline stages in order.
func Stages() []Stage { return []Stage{StageAnalysis, StageExecution, StageCommit} }

// StageInterval is one closed enter/exit interval of a stage, in
// ledger-epoch-relative nanoseconds.
type StageInterval struct {
	Stage Stage `json:"-"`
	Block int64 `json:"block"`
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// maxLedgerIntervals bounds the per-stage interval log: a sustained soak at
// thousands of blocks stays well under it, and a long-lived node simply loses
// gap-audit history past the cap (the rolling occupancy counters are
// unaffected).
const maxLedgerIntervals = 1 << 17

// stageState is the lock-cheap per-stage half of the ledger: cumulative busy
// time as an atomic (read lock-free by the sampler), the currently open
// interval, and the bounded interval log for the gap auditor.
type stageState struct {
	busyNs  atomic.Int64 // completed intervals only
	entries atomic.Int64

	mu        sync.Mutex
	open      bool
	openBlock int64
	openStart int64
	intervals []StageInterval
	dropped   int64
}

// StageLedger is the always-on node-level occupancy ledger: each pipeline
// stage reports enter/exit intervals, from which rolling occupancy fractions,
// inter-block gaps, commit lag, and backpressure counters derive. Events fire
// once per stage per block — never on the transaction hot path — and every
// hook is nil-safe behind a one-atomic-load Enabled() guard, in the style of
// eventlog.Log, so a disabled (or absent) ledger costs one predicted branch
// per block stage. The interval log is also what the Chrome export draws its
// pipeline tracks from.
type StageLedger struct {
	enabled atomic.Bool
	epoch   time.Time

	stages [NumStages]stageState

	// Throughput counters, bumped once per executed/committed block.
	blocks atomic.Int64
	txs    atomic.Int64
	aborts atomic.Int64

	// Commit-lag tracking: lag is the wall time from a block's commit being
	// issued (execution finished, write set handed to the backend) to its
	// authenticated root landing.
	commitLagLastNs  atomic.Int64
	commitLagMaxNs   atomic.Int64
	commitLagTotalNs atomic.Int64
	commits          atomic.Int64

	// commitQueue is the number of commits in flight (issued, root not yet
	// landed); backpressure counts the times the pipeline blocked waiting on
	// a prior commit that had not finished.
	commitQueue  atomic.Int64
	backpressure atomic.Int64
}

// NewStageLedger returns a disabled ledger whose clock starts now.
func NewStageLedger() *StageLedger {
	return &StageLedger{epoch: time.Now()}
}

// Enable switches interval collection on.
func (l *StageLedger) Enable() { l.enabled.Store(true) }

// Reset clears every counter and interval and restarts the clock, keeping
// the enabled state — a soak leg starts from a blank ledger without having
// to re-plumb a new one through a live observability endpoint. Call it only
// while no stage is reporting (between runs, no engine mid-block): the epoch
// is read lock-free by the reporting hot path.
func (l *StageLedger) Reset() {
	if l == nil {
		return
	}
	l.epoch = time.Now()
	for i := range l.stages {
		s := &l.stages[i]
		s.mu.Lock()
		s.busyNs.Store(0)
		s.entries.Store(0)
		s.open = false
		s.intervals = nil
		s.dropped = 0
		s.mu.Unlock()
	}
	l.blocks.Store(0)
	l.txs.Store(0)
	l.aborts.Store(0)
	l.commitLagLastNs.Store(0)
	l.commitLagMaxNs.Store(0)
	l.commitLagTotalNs.Store(0)
	l.commits.Store(0)
	l.commitQueue.Store(0)
	l.backpressure.Store(0)
}

// Disable switches interval collection off; collected data remains.
func (l *StageLedger) Disable() { l.enabled.Store(false) }

// Enabled reports whether the ledger is collecting. Nil-safe, one atomic
// load — the per-callsite guard.
func (l *StageLedger) Enabled() bool { return l != nil && l.enabled.Load() }

// Epoch is the instant interval timestamps count from (restarted by Reset).
func (l *StageLedger) Epoch() time.Time { return l.epoch }

// Now returns the ledger-relative monotonic timestamp in nanoseconds.
func (l *StageLedger) Now() int64 { return int64(time.Since(l.epoch)) }

// Enter opens a stage interval for block. The pipeline runs at most one
// interval per stage at a time; a second Enter while one is open closes the
// first defensively so the busy accounting cannot leak.
func (l *StageLedger) Enter(st Stage, block int64) {
	if !l.Enabled() || st >= NumStages {
		return
	}
	now := l.Now()
	s := &l.stages[st]
	s.mu.Lock()
	if s.open {
		l.closeLocked(s, st, now)
	}
	s.open = true
	s.openBlock = block
	s.openStart = now
	s.mu.Unlock()
	s.entries.Add(1)
}

// Exit closes the stage's open interval. Exits without a matching Enter (the
// ledger was enabled mid-interval) are ignored.
func (l *StageLedger) Exit(st Stage, block int64) {
	if !l.Enabled() || st >= NumStages {
		return
	}
	now := l.Now()
	s := &l.stages[st]
	s.mu.Lock()
	if s.open && s.openBlock == block {
		l.closeLocked(s, st, now)
	}
	s.mu.Unlock()
}

// closeLocked finalizes the open interval; s.mu must be held.
func (l *StageLedger) closeLocked(s *stageState, st Stage, now int64) {
	iv := StageInterval{Stage: st, Block: s.openBlock, Start: s.openStart, End: now}
	s.open = false
	s.busyNs.Add(now - s.openStart)
	if len(s.intervals) < maxLedgerIntervals {
		s.intervals = append(s.intervals, iv)
	} else {
		s.dropped++
	}
}

// NoteBlock records one executed block's throughput contribution.
func (l *StageLedger) NoteBlock(txs, aborts int64) {
	if !l.Enabled() {
		return
	}
	l.blocks.Add(1)
	l.txs.Add(txs)
	l.aborts.Add(aborts)
}

// NoteCommitIssued marks a commit entering the in-flight queue.
func (l *StageLedger) NoteCommitIssued() {
	if !l.Enabled() {
		return
	}
	l.commitQueue.Add(1)
}

// NoteCommitDone marks a commit's root landing, with the lag since it was
// issued.
func (l *StageLedger) NoteCommitDone(lag time.Duration) {
	if !l.Enabled() {
		return
	}
	l.commitQueue.Add(-1)
	ns := lag.Nanoseconds()
	l.commitLagLastNs.Store(ns)
	l.commitLagTotalNs.Add(ns)
	l.commits.Add(1)
	for {
		max := l.commitLagMaxNs.Load()
		if ns <= max || l.commitLagMaxNs.CompareAndSwap(max, ns) {
			break
		}
	}
}

// NoteBackpressure counts one pipeline block on an unfinished prior commit.
func (l *StageLedger) NoteBackpressure() {
	if !l.Enabled() {
		return
	}
	l.backpressure.Add(1)
}

// BusyNs returns the stage's cumulative busy nanoseconds as of now,
// including the still-open interval's elapsed portion. Safe to call from the
// sampler concurrently with Enter/Exit.
func (l *StageLedger) BusyNs(st Stage) int64 {
	if l == nil || st >= NumStages {
		return 0
	}
	s := &l.stages[st]
	busy := s.busyNs.Load()
	s.mu.Lock()
	if s.open {
		busy += l.Now() - s.openStart
	}
	s.mu.Unlock()
	return busy
}

// Counts returns the cumulative block/tx/abort counters.
func (l *StageLedger) Counts() (blocks, txs, aborts int64) {
	if l == nil {
		return 0, 0, 0
	}
	return l.blocks.Load(), l.txs.Load(), l.aborts.Load()
}

// CommitLag returns the last, max, and mean commit lag observed.
func (l *StageLedger) CommitLag() (last, max, mean time.Duration) {
	if l == nil {
		return 0, 0, 0
	}
	last = time.Duration(l.commitLagLastNs.Load())
	max = time.Duration(l.commitLagMaxNs.Load())
	if n := l.commits.Load(); n > 0 {
		mean = time.Duration(l.commitLagTotalNs.Load() / n)
	}
	return last, max, mean
}

// CommitQueueDepth returns the number of commits currently in flight.
func (l *StageLedger) CommitQueueDepth() int64 {
	if l == nil {
		return 0
	}
	return l.commitQueue.Load()
}

// Backpressure returns the cumulative backpressure-block count.
func (l *StageLedger) Backpressure() int64 {
	if l == nil {
		return 0
	}
	return l.backpressure.Load()
}

// Intervals returns a copy of the stage's closed intervals in enter order.
func (l *StageLedger) Intervals(st Stage) []StageInterval {
	if l == nil || st >= NumStages {
		return nil
	}
	s := &l.stages[st]
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]StageInterval, len(s.intervals))
	copy(out, s.intervals)
	return out
}

// OccupancySince returns the stage's occupancy fraction over the window from
// sinceNs (ledger-relative) to now: busy time in the window divided by the
// window length, clamped to [0,1]. A zero-length window reports 0.
func (l *StageLedger) OccupancySince(st Stage, sinceNs int64, sinceBusyNs int64) float64 {
	if l == nil {
		return 0
	}
	now := l.Now()
	wall := now - sinceNs
	if wall <= 0 {
		return 0
	}
	f := float64(l.BusyNs(st)-sinceBusyNs) / float64(wall)
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// LedgerSummary is a point-in-time roll-up of the ledger, embedded in the
// timeline JSON and the pipeline soak report.
type LedgerSummary struct {
	WallNs       int64              `json:"wall_ns"`
	Occupancy    map[string]float64 `json:"occupancy"`
	BusyNs       map[string]int64   `json:"busy_ns"`
	Entries      map[string]int64   `json:"entries"`
	Blocks       int64              `json:"blocks"`
	Txs          int64              `json:"txs"`
	Aborts       int64              `json:"aborts"`
	CommitLagNs  int64              `json:"commit_lag_last_ns"`
	CommitMaxNs  int64              `json:"commit_lag_max_ns"`
	CommitMeanNs int64              `json:"commit_lag_mean_ns"`
	CommitQueue  int64              `json:"commit_queue"`
	Backpressure int64              `json:"backpressure"`
}

// Summary rolls up the ledger's cumulative state: whole-run occupancy
// fractions (busy over wall since the epoch), counters, and commit lag.
func (l *StageLedger) Summary() LedgerSummary {
	sum := LedgerSummary{
		Occupancy: map[string]float64{},
		BusyNs:    map[string]int64{},
		Entries:   map[string]int64{},
	}
	if l == nil {
		return sum
	}
	wall := l.Now()
	sum.WallNs = wall
	for _, st := range Stages() {
		busy := l.BusyNs(st)
		sum.BusyNs[st.String()] = busy
		sum.Entries[st.String()] = l.stages[st].entries.Load()
		f := 0.0
		if wall > 0 {
			f = float64(busy) / float64(wall)
			if f > 1 {
				f = 1
			}
		}
		sum.Occupancy[st.String()] = f
	}
	sum.Blocks, sum.Txs, sum.Aborts = l.Counts()
	last, max, mean := l.CommitLag()
	sum.CommitLagNs, sum.CommitMaxNs, sum.CommitMeanNs = int64(last), int64(max), int64(mean)
	sum.CommitQueue = l.CommitQueueDepth()
	sum.Backpressure = l.Backpressure()
	return sum
}

// RecordMetrics implements Source: the ledger's roll-up lands under the
// "ledger." prefix (occupancy as parts-per-million gauges, since the registry
// is integer-valued).
func (l *StageLedger) RecordMetrics(r *Registry) {
	if l == nil {
		return
	}
	sum := l.Summary()
	for _, st := range Stages() {
		name := st.String()
		r.Gauge("ledger.occupancy_ppm." + name).Set(int64(sum.Occupancy[name] * 1e6))
		r.Gauge("ledger.busy_ns." + name).Set(sum.BusyNs[name])
	}
	r.Gauge("ledger.blocks").Set(sum.Blocks)
	r.Gauge("ledger.txs").Set(sum.Txs)
	r.Gauge("ledger.aborts").Set(sum.Aborts)
	r.Gauge("ledger.commit_lag_ns").Set(sum.CommitLagNs)
	r.Gauge("ledger.commit_queue").Set(sum.CommitQueue)
	r.Gauge("ledger.backpressure").Set(sum.Backpressure)
}

var _ Source = (*StageLedger)(nil)

// StageGap is one audited window in which the execution stage sat idle while
// it had runnable work: the next block's analysis had already completed
// (IdleNs past the tolerance), so a perfectly full pipeline would have been
// executing. Cause attributes the idle window: "commit" when a commit
// interval overlapped it (the authenticated commit was on the critical
// path — sync commit or backpressure), "scheduler" otherwise.
type StageGap struct {
	AfterBlock int64 `json:"after_block"`
	NextBlock  int64 `json:"next_block"`
	// StartNs/EndNs bound the execution-idle window (ledger-relative).
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// WaitAnalysisNs is the justified head of the window spent waiting for
	// the next block's analysis to finish (0 when it was already done).
	WaitAnalysisNs int64 `json:"wait_analysis_ns,omitempty"`
	// IdleNs is the unjustified remainder: execution idle with a fully
	// analyzed block ready to run.
	IdleNs int64  `json:"idle_ns"`
	Cause  string `json:"cause"`
}

// String renders the gap for reports.
func (g StageGap) String() string {
	return fmt.Sprintf("block %d -> %d: execution idle %v with runnable work (cause: %s)",
		g.AfterBlock, g.NextBlock, time.Duration(g.IdleNs).Round(time.Microsecond), g.Cause)
}

// AuditStageGaps is the machine-checkable version of "a Perfetto trace should
// show no stage gaps": it walks the ledger's execution intervals in start
// order and, for each inter-block idle window, deducts the justified wait for
// the next block's analysis; whatever idle time remains beyond tolerance —
// execution idle while analysis (and possibly commit) had runnable work —
// is flagged as a StageGap. A nil ledger or a ledger with fewer than two
// execution intervals audits clean.
func AuditStageGaps(l *StageLedger, tolerance time.Duration) []StageGap {
	if l == nil {
		return nil
	}
	execs := l.Intervals(StageExecution)
	if len(execs) < 2 {
		return nil
	}
	sort.Slice(execs, func(i, j int) bool { return execs[i].Start < execs[j].Start })

	// Latest analysis end per block: re-analysis (refreshed holes) keeps the
	// last word.
	analysisEnd := map[int64]int64{}
	for _, iv := range l.Intervals(StageAnalysis) {
		if iv.End > analysisEnd[iv.Block] {
			analysisEnd[iv.Block] = iv.End
		}
	}
	commits := l.Intervals(StageCommit)

	var gaps []StageGap
	for i := 1; i < len(execs); i++ {
		prev, next := execs[i-1], execs[i]
		idleStart, idleEnd := prev.End, next.Start
		if idleEnd <= idleStart {
			continue
		}
		// Runnable-work point: when the next block's analysis finished. A
		// block with no analysis interval (cached C-SAGs, non-analyzing
		// scheduler) was runnable the moment the previous block ended.
		ready := idleStart
		if end, ok := analysisEnd[next.Block]; ok && end > ready {
			ready = end
		}
		waitAnalysis := ready - idleStart
		if waitAnalysis < 0 {
			waitAnalysis = 0
		}
		idle := idleEnd - ready
		if idle <= tolerance.Nanoseconds() {
			continue
		}
		cause := "scheduler"
		for _, c := range commits {
			if c.Start < idleEnd && c.End > ready {
				cause = "commit"
				break
			}
		}
		gaps = append(gaps, StageGap{
			AfterBlock:     prev.Block,
			NextBlock:      next.Block,
			StartNs:        idleStart,
			EndNs:          idleEnd,
			WaitAnalysisNs: waitAnalysis,
			IdleNs:         idle,
			Cause:          cause,
		})
	}
	return gaps
}
