// Package eventlog is the scheduler's single record of what happened in a
// block: one Event type and one lossless, append-only, per-block Log. The
// DMVCC executor appends every schedule-relevant action from inside the
// critical section that performs it, so the log order is a happens-before-
// consistent linearization of the block's schedule. Everything downstream —
// Perfetto export, critical path, conflict forensics, the C-SAG audit's
// abort correlation, replay capture, the divergence audit, the forced-replay
// sequencer and the shrinker — is a pure function over a block's []Event.
//
// The log costs nothing when idle: every emission site guards with Enabled(),
// a nil-receiver-safe atomic load (BenchmarkEventsDisabled pins it within 2%
// of a run with no log attached).
package eventlog

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dmvcc/internal/sag"
	"dmvcc/internal/u256"
)

// Op classifies one scheduler action.
type Op uint8

const (
	// OpDispatch: an incarnation was picked up by pool worker Worker.
	OpDispatch Op = iota + 1
	// OpRead: a read resolved through the access sequence. Src is the writer
	// transaction whose version was observed (-1 = committed snapshot), Val
	// the value read.
	OpRead
	// OpPark: a read (or an ablation write stall) suspended on the pending
	// version of Item written by transaction Src.
	OpPark
	// OpResume: the parked execution resumed after a targeted wakeup.
	OpResume
	// OpPublish: an absolute version write; Val is the published value and
	// Early marks a release-point publish (§IV-C) as opposed to a finish one.
	OpPublish
	// OpDelta: a commutative delta publish; Val is the contribution.
	OpDelta
	// OpDrop: a version invalidated (abort cleanup or a predicted write that
	// never happened).
	OpDrop
	// OpAbort: an incarnation retired. Src is the causing transaction, Item
	// the stale-read key, Gas the full cost of an incarnation that had
	// already finished, Abort the forensic detail.
	OpAbort
	// OpWasted: an incarnation killed mid-flight observed its abort; Gas is
	// the partial progress thrown away. It follows (in Seq) or precedes the
	// matching OpAbort depending on who wins the race; readers join the two
	// on (Tx, Inc).
	OpWasted
	// OpCommit: an incarnation's receipt was recorded as final.
	OpCommit
	// OpWatchdog: a stall-recovery round (Inc carries the attempt). Wall-clock
	// driven, so logs containing one are refused for replay.
	OpWatchdog
	// OpBreaker: the circuit breaker tripped; the block degrades to serial.
	OpBreaker
)

var opNames = [...]string{
	OpDispatch: "dispatch", OpRead: "read", OpPark: "park", OpResume: "resume",
	OpPublish: "publish", OpDelta: "delta", OpDrop: "drop", OpAbort: "abort",
	OpWasted: "wasted", OpCommit: "commit", OpWatchdog: "watchdog", OpBreaker: "breaker",
}

// String renders the op for reports and the JSON codec.
func (o Op) String() string {
	if o >= OpDispatch && int(o) < len(opNames) {
		return opNames[o]
	}
	return "?"
}

// ParseOp inverts String.
func ParseOp(s string) (Op, bool) {
	for o := OpDispatch; int(o) < len(opNames); o++ {
		if opNames[o] == s {
			return o, true
		}
	}
	return 0, false
}

// Gated reports whether events of this kind participate in forced-
// interleaving replay: the actions whose relative order decides what every
// transaction observes. Park/resume/wasted are consequences of that order,
// watchdog/breaker marks are diagnostics.
func (o Op) Gated() bool {
	switch o {
	case OpDispatch, OpRead, OpPublish, OpDelta, OpDrop, OpAbort, OpCommit:
		return true
	}
	return false
}

// ItemKeyed reports whether the replayer matches events of this kind on the
// item as well as (op, tx, inc). Per-incarnation actions on distinct items
// (reads, publishes, drops) need the item to disambiguate; dispatch, abort
// and commit happen at most once per incarnation.
func (o Op) ItemKeyed() bool {
	switch o {
	case OpRead, OpPublish, OpDelta, OpDrop:
		return true
	}
	return false
}

// AbortClass is the structured cause of one incarnation abort, derived from
// the access-sequence state at the moment the stale read was detected.
type AbortClass uint8

const (
	// AbortUnpredictedWrite: the invalidating version came from a write the
	// C-SAG never predicted (a dynamically inserted entry). The victim could
	// not have waited for it — the analysis missed the access.
	AbortUnpredictedWrite AbortClass = iota + 1
	// AbortSnapshotStale: the victim resolved its read from the committed
	// snapshot (every predicted predecessor looked finished or absent at
	// scan time) and a predicted writer published afterwards — a scheduling
	// race, not an analysis miss.
	AbortSnapshotStale
	// AbortStaleVersion: the victim observed an older in-block version of a
	// predicted writer that later republished (e.g. a writer re-incarnated
	// after its own abort and produced a different value).
	AbortStaleVersion
	// AbortCascade: the victim had read a version that was dropped when its
	// writer aborted — collateral damage propagated by Algorithm 4.
	AbortCascade
	// AbortInjected: a fault-injection point forced this abort (chaos
	// testing); spurious aborts are always safe under DMVCC.
	AbortInjected
	// AbortWatchdog: the stall watchdog force-aborted the incarnation to
	// recover scheduler progress.
	AbortWatchdog
	// AbortForced: the run was cancelled (circuit breaker trip or block
	// error) and live incarnations were drained.
	AbortForced
)

var classNames = [...]string{
	AbortUnpredictedWrite: "unpredicted_write", AbortSnapshotStale: "snapshot_stale",
	AbortStaleVersion: "stale_version", AbortCascade: "cascade",
	AbortInjected: "fault_injected", AbortWatchdog: "watchdog_forced", AbortForced: "forced",
}

// String implements fmt.Stringer.
func (c AbortClass) String() string {
	if c >= AbortUnpredictedWrite && int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// MarshalText renders the class as its snake_case name in JSON.
func (c AbortClass) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText parses the snake_case class names (report round-trips).
func (c *AbortClass) UnmarshalText(b []byte) error {
	for k := AbortUnpredictedWrite; int(k) < len(classNames); k++ {
		if classNames[k] == string(b) {
			*c = k
			return nil
		}
	}
	return fmt.Errorf("eventlog: unknown abort class %q", b)
}

// AbortInfo is the forensic detail of one OpAbort event. Events of one
// cascade share a Cascade id and form a tree through Parent.
type AbortInfo struct {
	Class AbortClass `json:"class"`
	// Cascade groups the aborts triggered by one publish (or forced drain).
	Cascade int32 `json:"cascade"`
	// Parent is the tx of the parent victim within the cascade (-1 = root).
	Parent int32 `json:"parent"`
	// WriterInc is the incarnation of the invalidating writer.
	WriterInc int32 `json:"writer_inc"`
	// ReadSrc is the version the victim had observed: the writing
	// transaction's index, or -1 when the read resolved from the snapshot.
	ReadSrc int32 `json:"read_src"`
}

// Event is one recorded scheduler action. Seq and TS are stamped by Append
// under the log lock, from inside the critical section that performs the
// action, so Seq order (and TS order) is a valid linearization of the
// schedule. Worker and Src are -1 when not meaningful for the op.
type Event struct {
	Seq uint64
	// TS is nanoseconds since the log's epoch (monotonic clock).
	TS     int64
	Op     Op
	Early  bool
	Tx     int32
	Inc    int32
	Worker int32
	Src    int32
	Item   sag.ItemID
	Val    u256.Int
	Gas    uint64
	Abort  *AbortInfo
}

// MaxBlocks is how many recent blocks a Log retains; older blocks are
// evicted whole, so a long-running node's memory stays bounded and readers
// of an evicted block see "not found" rather than a truncated log.
const MaxBlocks = 32

// Block is one block's record: the ordered events plus the few block-level
// facts readers need that are not scheduler actions.
type Block struct {
	Number int64
	Txs    int
	Events []Event
	// Degraded is the circuit-breaker reason when the block fell back to
	// serial execution ("" = completed in parallel).
	Degraded string
	// Reports are block-level artefacts derived during execution that the
	// event stream cannot carry (the watchdog's stall dumps, the end-of-block
	// C-SAG audit). Their types belong to the readers.
	Reports []any
}

// Log collects scheduler events, one Block at a time. It is disabled by
// default and all methods tolerate a nil receiver. Blocks execute one at a
// time per engine (the pipeline overlaps only analysis), so appends always
// belong to the most recently begun block.
type Log struct {
	enabled atomic.Bool
	epoch   time.Time

	mu     sync.Mutex
	blocks []*Block // retained blocks, oldest first; appends go to the last
}

// New returns a disabled log whose clock starts now.
func New() *Log { return &Log{epoch: time.Now()} }

// Enable switches collection on.
func (l *Log) Enable() { l.enabled.Store(true) }

// Disable switches collection off; collected blocks remain readable.
func (l *Log) Disable() { l.enabled.Store(false) }

// Enabled is the hot-path guard: nil-safe, one atomic load, inlineable.
func (l *Log) Enabled() bool { return l != nil && l.enabled.Load() }

// Epoch is the instant TS counts from; readers use it to place events on a
// shared timeline with other clocks.
func (l *Log) Epoch() time.Time { return l.epoch }

// Begin opens the record of a block about to execute, evicting the oldest
// retained block past MaxBlocks. Re-executing a retained block number
// replaces its record.
func (l *Log) Begin(number int64, txs int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.open(number, txs)
}

// open appends a fresh block record, making it current. Called with l.mu
// held.
func (l *Log) open(number int64, txs int) {
	if i := l.index(number); i >= 0 {
		l.blocks = slices.Delete(l.blocks, i, i+1)
	}
	if len(l.blocks) == MaxBlocks {
		l.blocks = slices.Delete(l.blocks, 0, 1)
	}
	l.blocks = append(l.blocks, &Block{Number: number, Txs: txs})
}

// Append stamps e with the next sequence number and the current time and
// adds it to the current block. Callers invoke it while holding the lock
// that performs the action, so two causally ordered actions always stamp in
// order.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	if len(l.blocks) == 0 {
		l.open(0, 0) // appends outside a block (unit tests of one sequence)
	}
	cur := l.blocks[len(l.blocks)-1]
	e.Seq = uint64(len(cur.Events))
	e.TS = int64(time.Since(l.epoch))
	cur.Events = append(cur.Events, e)
	l.mu.Unlock()
}

// Record is Append for the common event shape.
func (l *Log) Record(op Op, tx, inc, worker, src int, item sag.ItemID, val u256.Int) {
	l.Append(Event{Op: op, Tx: int32(tx), Inc: int32(inc), Worker: int32(worker), Src: int32(src), Item: item, Val: val})
}

// SetDegraded marks a retained block as degraded to serial execution.
func (l *Log) SetDegraded(number int64, reason string) {
	l.mu.Lock()
	if b := l.find(number); b != nil {
		b.Degraded = reason
	}
	l.mu.Unlock()
}

// AddReport attaches a block-level artefact to a retained block (dropped
// when the block is not retained).
func (l *Log) AddReport(number int64, r any) {
	l.mu.Lock()
	if b := l.find(number); b != nil {
		b.Reports = append(b.Reports, r)
	}
	l.mu.Unlock()
}

// index returns the position of the retained block with the given number,
// or -1. Called with l.mu held.
func (l *Log) index(number int64) int {
	return slices.IndexFunc(l.blocks, func(b *Block) bool { return b.Number == number })
}

// find returns the retained block with the given number, or nil. Called with
// l.mu held.
func (l *Log) find(number int64) *Block {
	if i := l.index(number); i >= 0 {
		return l.blocks[i]
	}
	return nil
}

// snapshot copies a block so readers never share slices with appenders.
// Called with l.mu held.
func snapshot(b *Block) *Block {
	out := *b
	out.Events = append([]Event(nil), b.Events...)
	out.Reports = append([]any(nil), b.Reports...)
	return &out
}

// Block returns a snapshot of a retained block, or nil when the block was
// never recorded or has been evicted.
func (l *Log) Block(number int64) *Block {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if b := l.find(number); b != nil {
		return snapshot(b)
	}
	return nil
}

// Events returns a copy of a retained block's events in stamp order.
func (l *Log) Events(number int64) []Event {
	if b := l.Block(number); b != nil {
		return b.Events
	}
	return nil
}

// Blocks returns snapshots of every retained block, oldest first.
func (l *Log) Blocks() []*Block {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Block, len(l.blocks))
	for i, b := range l.blocks {
		out[i] = snapshot(b)
	}
	return out
}
