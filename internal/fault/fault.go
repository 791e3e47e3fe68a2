// Package fault is a deterministic, seeded fault-injection layer for chaos
// testing the DMVCC scheduler. Named injection points are threaded through
// the execution hot path (worker panics mid-transaction, artificial
// execution delays, C-SAG corruption, forced snapshot staleness, delayed
// early-publish, failing/slow trie commits); each site consults an Injector
// that decides *deterministically* — the decision is a hash of (seed, point,
// block, tx, incarnation), never of wall-clock time or goroutine
// interleaving — so a fault schedule reproduces exactly from its seed no
// matter how the threads race.
//
// The disabled path is a nil check: every call site guards with
// Injector.Enabled(), which is nil-receiver safe, so executions without an
// attached injector pay one predicted branch per site (pinned by
// BenchmarkFaultDisabled in internal/core).
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"dmvcc/internal/sag"
)

// Point names one fault-injection site in the execution path.
type Point uint8

const (
	// WorkerPanic panics the executing goroutine mid-transaction (after a
	// deterministic number of VM instructions), exercising the worker pool's
	// panic containment.
	WorkerPanic Point = iota
	// ExecDelay stalls an incarnation for the configured Delay before it
	// starts executing (interruptible by abort), exercising the stall
	// watchdog and slow-transaction paths.
	ExecDelay
	// CSAGDropRead removes a deterministic subset of a transaction's
	// predicted read set before execution.
	CSAGDropRead
	// CSAGDropWrite removes a deterministic subset of the predicted write
	// set, turning those writes into unpredicted dynamic insertions.
	CSAGDropWrite
	// CSAGDropDelta removes a deterministic subset of the predicted
	// commutative-delta set.
	CSAGDropDelta
	// SnapshotStale force-aborts an incarnation on its first sequence read,
	// as if its snapshot-resolved read had been invalidated (spurious aborts
	// are always safe under DMVCC; this exercises the abort machinery and,
	// at rate 1.0, deterministically drives the circuit breaker).
	SnapshotStale
	// DelayEarlyPublish suppresses release-point early publication for the
	// incarnation, deferring all visibility to transaction finish.
	DelayEarlyPublish
	// CommitFail fails the block's trie commit with ErrInjectedCommit
	// (bounded per block; callers retry).
	CommitFail
	// CommitSlow sleeps for Delay inside the trie commit.
	CommitSlow
	// KVReadFail fails a disk-backed flat store's KV read with
	// ErrInjectedKVRead (transient; the store's bounded retry loop absorbs
	// it).
	KVReadFail
	// KVFlushSlow stalls a disk-backed flat store's log flush for Delay.
	KVFlushSlow
	// CrashBeforeSync kills the process (simulated) with the commit still in
	// the write buffers: nothing of the crashed-in block reaches disk, so
	// recovery resumes one height back. Driven by the crash torture harness,
	// not threaded through the execution path.
	CrashBeforeSync
	// CrashAfterWrite kills the process after the commit is fully durable:
	// recovery resumes at the crash height with nothing rolled back.
	CrashAfterWrite
	// TornTail kills the process and truncates the log at a seeded random
	// byte offset, modeling a partial sector write: recovery must detect the
	// torn record and roll back to the last valid commit marker.
	TornTail

	// NumPoints is the number of defined injection points.
	NumPoints
)

// String implements fmt.Stringer.
func (p Point) String() string {
	switch p {
	case WorkerPanic:
		return "worker_panic"
	case ExecDelay:
		return "exec_delay"
	case CSAGDropRead:
		return "csag_drop_read"
	case CSAGDropWrite:
		return "csag_drop_write"
	case CSAGDropDelta:
		return "csag_drop_delta"
	case SnapshotStale:
		return "snapshot_stale"
	case DelayEarlyPublish:
		return "delay_early_publish"
	case CommitFail:
		return "commit_fail"
	case CommitSlow:
		return "commit_slow"
	case KVReadFail:
		return "kv_read_fail"
	case KVFlushSlow:
		return "kv_flush_slow"
	case CrashBeforeSync:
		return "crash_before_sync"
	case CrashAfterWrite:
		return "crash_after_write"
	case TornTail:
		return "torn_tail"
	default:
		return fmt.Sprintf("point(%d)", uint8(p))
	}
}

// Points lists every defined injection point.
func Points() []Point {
	out := make([]Point, 0, NumPoints)
	for p := Point(0); p < NumPoints; p++ {
		out = append(out, p)
	}
	return out
}

// ErrInjectedCommit marks a trie-commit failure injected by CommitFail.
// Callers distinguish it from genuine commit errors and retry.
var ErrInjectedCommit = errors.New("fault: injected commit failure")

// ErrInjectedKVRead marks a KV read failure injected by KVReadFail. It is
// transient by contract: the disk store's retry loop must eventually see a
// clean read (rates < 1 guarantee this for any bounded retry budget).
var ErrInjectedKVRead = errors.New("fault: injected kv read failure")

// KVHooks derives the plain-callback hook pair a disk-backed flat store
// accepts (state.FlatBackend.SetKVFaultHooks) from the injector's
// KVReadFail/KVFlushSlow points. Decisions are keyed by (key hash, global
// read sequence): the sequence makes consecutive retries of one key roll
// fresh values — a pure per-key decision would fire forever and wedge the
// store's bounded retry loop — at the cost of reproducibility across thread
// interleavings (read order varies with scheduling). Unlike the execution
// sites, that is acceptable here: the chaos oracle is root equality, which
// holds regardless of which reads transiently failed.
func (in *Injector) KVHooks() (read func(key []byte) error, flush func() time.Duration) {
	if !in.Enabled() {
		return nil, nil
	}
	var seq atomic.Int64
	read = func(key []byte) error {
		h := uint64(14695981039346656037)
		for _, b := range key {
			h = (h ^ uint64(b)) * 1099511628211
		}
		// The monotonic sequence makes consecutive retries of one key roll
		// fresh values, so a < 1 rate cannot wedge the retry loop forever.
		if in.Fire(KVReadFail, int64(h>>32), int(uint32(h)), int(seq.Add(1))) {
			return ErrInjectedKVRead
		}
		return nil
	}
	flush = func() time.Duration {
		return in.DelayFor(KVFlushSlow, 0, 0, int(seq.Add(1)))
	}
	return read, flush
}

// InjectedPanic is the value thrown by a WorkerPanic injection, so panic
// containment (and tests) can tell injected panics from genuine ones.
type InjectedPanic struct {
	Block int64
	Tx    int
	Inc   int
}

// Error makes the panic value readable in logs and recover sites.
func (p *InjectedPanic) Error() string {
	return fmt.Sprintf("fault: injected panic (block %d tx %d inc %d)", p.Block, p.Tx, p.Inc)
}

// Config parameterizes an Injector.
type Config struct {
	// Seed drives every decision; the same seed reproduces the same fault
	// schedule for the same (point, block, tx, incarnation) keys.
	Seed int64
	// Rates maps each point to its per-site fire probability in [0, 1].
	// Points absent from the map never fire.
	Rates map[Point]float64
	// Delay is the duration of injected stalls (ExecDelay, CommitSlow).
	// Zero selects a small default (200µs).
	Delay time.Duration
	// Limits optionally caps total fires per point (0 = unlimited). Used by
	// tests that need exactly-N faults (e.g. one giant delay to provoke a
	// stall, then a clean re-execution).
	Limits map[Point]int
}

// defaultDelay keeps delay faults visible in traces without dominating a
// soak's wall clock.
const defaultDelay = 200 * time.Microsecond

// Injector decides, deterministically per (point, block, tx, incarnation),
// whether a fault fires. It is safe for concurrent use; a nil *Injector is
// valid and never fires.
type Injector struct {
	seed   uint64
	delay  time.Duration
	active bool
	// thresholds[p] compares against a 64-bit uniform roll: fire iff
	// roll < threshold (math.MaxUint64 = always).
	thresholds [NumPoints]uint64
	limits     [NumPoints]int64
	fires      [NumPoints]atomic.Int64
	// txmap, when set, translates transaction indices before keying a
	// decision: txmap[i] is the original index of the transaction now at
	// position i. The replay shrinker uses it so a subset block draws the
	// same per-transaction faults the full capture did.
	txmap []int
}

// New builds an injector from cfg. A config with no positive rates yields a
// disabled (but non-nil) injector.
func New(cfg Config) *Injector {
	in := &Injector{seed: uint64(cfg.Seed), delay: cfg.Delay}
	if in.delay <= 0 {
		in.delay = defaultDelay
	}
	for p, rate := range cfg.Rates {
		if p >= NumPoints || rate <= 0 {
			continue
		}
		if rate >= 1 {
			in.thresholds[p] = math.MaxUint64
		} else {
			in.thresholds[p] = uint64(rate * float64(math.MaxUint64))
		}
		in.active = true
	}
	for p, n := range cfg.Limits {
		if p < NumPoints && n > 0 {
			in.limits[p] = int64(n)
		}
	}
	return in
}

// Enabled is the hot-path guard: nil-safe, branch-predictable, inlineable.
// Call sites skip all fault logic when it reports false.
func (in *Injector) Enabled() bool { return in != nil && in.active }

// SetTxMap installs a position→original-index translation applied to every
// subsequent decision key (m[i] = original index of the transaction now at
// position i; nil removes the mapping). Set it before execution starts —
// the injector does not synchronize the slice.
func (in *Injector) SetTxMap(m []int) {
	if in != nil {
		in.txmap = m
	}
}

// mapTx resolves a transaction index through the optional translation.
func (in *Injector) mapTx(tx int) int {
	if m := in.txmap; m != nil && tx >= 0 && tx < len(m) {
		return m[tx]
	}
	return tx
}

// splitmix64 is the finalizer of the SplitMix64 generator: a strong 64-bit
// mixer, good enough to turn structured keys into uniform rolls.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll derives the decision value for one (point, block, tx, aux) key. aux
// is the incarnation number at execution sites and a free discriminator
// elsewhere (commit attempt, item hash).
func (in *Injector) roll(p Point, block int64, tx int, aux uint64) uint64 {
	x := splitmix64(in.seed ^ uint64(p)<<56 ^ uint64(block))
	return splitmix64(x ^ uint64(uint32(tx))<<32 ^ aux)
}

// Draw decides whether point p fires for the given key and returns the raw
// roll (for call sites that derive secondary parameters, e.g. the
// instruction countdown of an injected panic).
func (in *Injector) Draw(p Point, block int64, tx, aux int) (bool, uint64) {
	if in == nil {
		return false, 0
	}
	th := in.thresholds[p]
	if th == 0 {
		return false, 0
	}
	r := in.roll(p, block, in.mapTx(tx), uint64(uint32(aux)))
	if r >= th && th != math.MaxUint64 {
		return false, r
	}
	if lim := in.limits[p]; lim > 0 {
		if n := in.fires[p].Add(1); n > lim {
			in.fires[p].Add(-1)
			return false, r
		}
		return true, r
	}
	in.fires[p].Add(1)
	return true, r
}

// Fire is Draw without the roll.
func (in *Injector) Fire(p Point, block int64, tx, aux int) bool {
	ok, _ := in.Draw(p, block, tx, aux)
	return ok
}

// DelayFor returns the injected stall duration for the key (0 = no fault).
func (in *Injector) DelayFor(p Point, block int64, tx, aux int) time.Duration {
	if in.Fire(p, block, tx, aux) {
		return in.delay
	}
	return 0
}

// Fired reports how many times point p has fired so far.
func (in *Injector) Fired(p Point) int64 {
	if in == nil {
		return 0
	}
	return in.fires[p].Load()
}

// Counts snapshots the per-point fire counters (points that fired at least
// once), keyed by point name — report material.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	out := make(map[string]int64)
	for p := Point(0); p < NumPoints; p++ {
		if n := in.fires[p].Load(); n > 0 {
			out[p.String()] = n
		}
	}
	return out
}

// itemHash folds an ItemID into the aux key so per-item corruption decisions
// are independent of map iteration order.
func itemHash(id sag.ItemID) uint64 {
	h := uint64(14695981039346656037)
	h = (h ^ uint64(id.Kind)) * 1099511628211
	for _, b := range id.Addr {
		h = (h ^ uint64(b)) * 1099511628211
	}
	for _, b := range id.Slot {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// CorruptCSAGs applies the C-SAG corruption points to a block's analyses:
// for each transaction whose CSAGDrop{Read,Write,Delta} point fires, a
// deterministic ~half of the corresponding predicted entries are dropped.
// The input slice and its C-SAGs are never mutated — corrupted transactions
// get deep-copied graphs (C-SAGs may be cached by transaction pools), and
// untouched map fields stay shared (the executor only reads them). Dropping
// predictions is always safe under DMVCC: missing reads cost nothing,
// missing writes surface as unpredicted dynamic insertions and exercise the
// abort machinery.
func CorruptCSAGs(in *Injector, block int64, csags []*sag.CSAG) []*sag.CSAG {
	if !in.Enabled() || len(csags) == 0 {
		return csags
	}
	out := csags
	copied := false
	for i, c := range csags {
		if c == nil {
			continue
		}
		dropR := in.Fire(CSAGDropRead, block, i, 0)
		dropW := in.Fire(CSAGDropWrite, block, i, 0)
		dropD := in.Fire(CSAGDropDelta, block, i, 0)
		if !dropR && !dropW && !dropD {
			continue
		}
		if !copied {
			out = make([]*sag.CSAG, len(csags))
			copy(out, csags)
			copied = true
		}
		cc := c.WithoutOutcome() // the pre-run's outcome belongs to the graph as analysed
		if dropR {
			cc.Reads = make(map[sag.ItemID]struct{}, len(c.Reads))
			for id := range c.Reads {
				if !in.dropItem(CSAGDropRead, block, i, id) {
					cc.Reads[id] = struct{}{}
				}
			}
		}
		if dropW {
			cc.Writes = make(map[sag.ItemID]int, len(c.Writes))
			for id, n := range c.Writes {
				if !in.dropItem(CSAGDropWrite, block, i, id) {
					cc.Writes[id] = n
				}
			}
		}
		if dropD {
			cc.Deltas = make(map[sag.ItemID]int, len(c.Deltas))
			for id, n := range c.Deltas {
				if !in.dropItem(CSAGDropDelta, block, i, id) {
					cc.Deltas[id] = n
				}
			}
		}
		out[i] = cc
	}
	return out
}

// dropItem decides (50%, order-independent) whether one predicted entry of
// an armed transaction is dropped.
func (in *Injector) dropItem(p Point, block int64, tx int, id sag.ItemID) bool {
	return in.roll(p, block, in.mapTx(tx), itemHash(id))&1 == 0
}
