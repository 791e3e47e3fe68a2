package core

import (
	"bytes"
	"cmp"
	"slices"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/evm"
	"dmvcc/internal/fault"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// itemRec is the per-item access record of one incarnation: the buffered
// absolute write, accumulated unpublished delta, memoized resolved read,
// early-publish bookkeeping, and the analyzer-mirroring touch state — all in
// one cache line run instead of eight parallel maps. A zero-valued record is
// equivalent to the item being absent (every consumer gates on the has*
// flags or touchNone), which is what makes journal reverts cheap: reverting
// an item's creation just zeroes its fields in place.
type itemRec struct {
	id    sag.ItemID
	touch touchKind

	hasW         bool
	hasPending   bool
	hasCached    bool
	hasPublished bool
	publishedDel bool
	hasCode      bool

	writeEvts int32

	w         u256.Int // buffered absolute write
	pending   u256.Int // accumulated unpublished delta
	cached    u256.Int // memoized resolved read
	published u256.Int // early-published absolute value

	code []byte // deployed code bytes (KindCode items)
}

// spillThreshold is the item count past which the accessor builds a map
// index over the vector. Below it, lookups are a linear scan over contiguous
// records — cheaper than hashing a 53-byte ItemID for the typical
// transaction touching well under a dozen items.
const spillThreshold = 24

// accessor is the evm.State implementation backing one transaction
// incarnation under DMVCC. Reads resolve through the access sequences
// (blocking on pending predecessor versions); writes buffer locally and
// become visible through versionWrite — either early, at a release point,
// or at transaction finish. Its delta/degrade protocol mirrors sag.recorder
// exactly so C-SAG predictions line up with runtime behaviour.
//
// Access recording is a small vector of itemRec (index map only past
// spillThreshold), sized from the C-SAG prediction; accessors are pooled
// across incarnations and blocks, retaining vector/journal capacity.
type accessor struct {
	r   *run
	rt  *txRuntime
	inc int

	items []itemRec
	spill map[sag.ItemID]int32 // index over items, built past spillThreshold

	// scratch holds the sorted predicted-write ids during finish's drop
	// sweep (reused across incarnations; finish must visit them in a
	// deterministic order for the replay machinery).
	scratch []sag.ItemID

	journal []undo
	snaps   []int

	armDelta       bool
	armStore       bool
	deltaPending   sag.ItemID
	deltaPendingOK bool
	drained        bool // no unpublished release-eligible writes remain

	// deadFn is a.dead bound once per accessor lifetime (the method value
	// would otherwise allocate a closure on every sequence call).
	deadFn func() bool

	// Registry memo: Step performs one contract-info lookup per stop without
	// it; frames make many consecutive stops in one contract.
	memo sag.Memo

	// snapCache is the executing worker's committed-snapshot read cache
	// (see workerCache); it follows the goroutine, not the incarnation.
	snapCache *workerCache

	// Virtual-time trace: topGas is the top frame's starting gas, offset
	// the gas consumed so far (top-frame view), events the dependency log.
	topGas  uint64
	offset  uint64
	events  []TraceEvent
	intrins uint64

	// worker is the pool goroutine executing this incarnation (the event
	// log's track id); inFinish flags finish-time publishes so the log can
	// distinguish them from early-write visibility.
	worker   int
	inFinish bool

	// replayed is the pre-run outcome this incarnation committed instead of
	// running the interpreter (see replay); nil for an EVM run.
	replayed *sag.Outcome

	// Fault-injection arming, decided once per incarnation (all zero when
	// no injector is attached — the production path).
	panicAfter    int  // hook-stop countdown to an injected panic
	forceStale    bool // force-abort the next sequence read
	suppressEarly bool // suppress release-point early publication
}

// touchKind mirrors the analyzer's classification states.
type touchKind uint8

const (
	touchNone touchKind = iota
	touchRead
	touchDelta
	touchWritten
)

var (
	_ evm.State        = (*accessor)(nil)
	_ evm.BalanceAdder = (*accessor)(nil)
	_ evm.Hooks        = (*accessor)(nil)
)

// newAccessor builds the state view of one incarnation on a pooled
// accessor: the item vector, journal, and trace buffers retain their
// capacity across incarnations, so a steady-state incarnation allocates
// nothing here.
func newAccessor(r *run, rt *txRuntime, inc int) *accessor {
	a := r.getAccessor()
	a.r = r
	a.rt = rt
	a.inc = inc
	a.intrins = evm.IntrinsicGas(rt.tx.Data)
	if c := rt.csag; c != nil {
		want := len(c.Reads) + len(c.Writes) + len(c.Deltas)
		if cap(a.items) < want {
			a.items = make([]itemRec, 0, want+4)
		}
		if cap(a.events) < want {
			a.events = make([]TraceEvent, 0, want+4)
		}
	}
	if a.deadFn == nil {
		a.deadFn = a.dead
	}
	if in := r.faults; in.Enabled() {
		a.armFaults(in)
	}
	return a
}

// reset clears the accessor for reuse, keeping allocated capacity. The
// events slice is NOT retained when the incarnation completed — its backing
// array escapes into the committed TxTrace — but aborted incarnations hand
// theirs back.
func (a *accessor) reset() {
	a.r = nil
	a.rt = nil
	a.inc = 0
	clear(a.items) // drop code-slice references before pooling
	a.items = a.items[:0]
	a.spill = nil
	a.scratch = a.scratch[:0]
	clear(a.journal)
	a.journal = a.journal[:0]
	a.snaps = a.snaps[:0]
	a.armDelta = false
	a.armStore = false
	a.deltaPending = sag.ItemID{}
	a.deltaPendingOK = false
	a.drained = false
	a.memo = sag.Memo{}
	a.snapCache = nil
	a.topGas = 0
	a.offset = 0
	a.events = a.events[:0]
	a.intrins = 0
	a.worker = 0
	a.inFinish = false
	a.replayed = nil
	a.panicAfter = 0
	a.forceStale = false
	a.suppressEarly = false
}

// armFaults draws this incarnation's fault decisions up front (one hash per
// armed point), so the per-stop hot path only tests plain fields.
func (a *accessor) armFaults(in *fault.Injector) {
	blockN := int64(a.r.block.Number)
	if ok, roll := in.Draw(fault.WorkerPanic, blockN, a.rt.idx, a.inc); ok {
		// Panic mid-transaction: after a deterministic, roll-derived number
		// of hook stops (between VM steps, no scheduler locks held).
		a.panicAfter = 1 + int((roll>>33)%24)
	}
	a.forceStale = in.Fire(fault.SnapshotStale, blockN, a.rt.idx, a.inc)
	a.suppressEarly = in.Fire(fault.DelayEarlyPublish, blockN, a.rt.idx, a.inc)
}

// dead reports whether this incarnation has been aborted.
func (a *accessor) dead() bool { return a.rt.curInc() != a.inc }

// lookupInfo resolves the contract info of addr through the one-entry memo.
func (a *accessor) lookupInfo(addr types.Address) *sag.ContractInfo {
	return a.memo.Lookup(a.r.reg, addr)
}

// --- item vector ------------------------------------------------------------

// find returns the index of id's record, or -1.
func (a *accessor) find(id sag.ItemID) int {
	if a.spill != nil {
		if i, ok := a.spill[id]; ok {
			return int(i)
		}
		return -1
	}
	for i := range a.items {
		if a.items[i].id == id {
			return i
		}
	}
	return -1
}

// rec returns the index of id's record, appending a zero record if absent.
func (a *accessor) rec(id sag.ItemID) int {
	if i := a.find(id); i >= 0 {
		return i
	}
	i := len(a.items)
	a.items = append(a.items, itemRec{id: id})
	if a.spill != nil {
		a.spill[id] = int32(i)
	} else if len(a.items) > spillThreshold {
		a.spill = make(map[sag.ItemID]int32, 2*len(a.items))
		for j := range a.items {
			a.spill[a.items[j].id] = int32(j)
		}
	}
	return i
}

// --- journaling -------------------------------------------------------------

// undoKind selects which itemRec field an undo record restores.
type undoKind uint8

const (
	undoTouch undoKind = iota + 1
	undoW
	undoWCode
	undoPending
)

// undo is one typed entry of the revert journal, addressing an item record
// by index (records are never removed, so indexes are stable).
type undo struct {
	kind undoKind
	had  bool
	tk   touchKind
	item int32
	val  u256.Int
	code []byte
}

// revert undoes one journal record.
func (a *accessor) revert(u *undo) {
	rec := &a.items[u.item]
	switch u.kind {
	case undoTouch:
		rec.touch = u.tk
	case undoW:
		rec.hasW = u.had
		rec.w = u.val
	case undoWCode:
		rec.hasCode = u.had
		rec.code = u.code
	case undoPending:
		rec.hasPending = u.had
		rec.pending = u.val
	}
}

func (a *accessor) setTouch(i int, t touchKind) {
	rec := &a.items[i]
	a.journal = append(a.journal, undo{kind: undoTouch, item: int32(i), tk: rec.touch})
	rec.touch = t
}

func (a *accessor) setW(i int, v u256.Int) {
	rec := &a.items[i]
	a.journal = append(a.journal, undo{kind: undoW, item: int32(i), had: rec.hasW, val: rec.w})
	rec.hasW = true
	rec.w = v
	a.drained = false
}

func (a *accessor) setWCode(i int, code []byte) {
	rec := &a.items[i]
	a.journal = append(a.journal, undo{kind: undoWCode, item: int32(i), had: rec.hasCode, code: rec.code})
	rec.hasCode = true
	rec.code = code
	a.drained = false
}

func (a *accessor) addPending(i int, v *u256.Int) {
	rec := &a.items[i]
	a.journal = append(a.journal, undo{kind: undoPending, item: int32(i), had: rec.hasPending, val: rec.pending})
	rec.pending.Add(&rec.pending, v)
	rec.hasPending = true
	a.drained = false
}

func (a *accessor) dropPendingJ(i int) {
	rec := &a.items[i]
	if !rec.hasPending {
		return
	}
	a.journal = append(a.journal, undo{kind: undoPending, item: int32(i), had: true, val: rec.pending})
	rec.hasPending = false
	rec.pending = u256.Int{}
}

// Snapshot implements evm.State.
func (a *accessor) Snapshot() int {
	a.snaps = append(a.snaps, len(a.journal))
	return len(a.snaps) - 1
}

// RevertToSnapshot implements evm.State.
func (a *accessor) RevertToSnapshot(rev int) {
	mark := a.snaps[rev]
	for i := len(a.journal) - 1; i >= mark; i-- {
		a.revert(&a.journal[i])
	}
	a.journal = a.journal[:mark]
	a.snaps = a.snaps[:rev]
}

// --- read path --------------------------------------------------------------

// snapValue reads an item's committed snapshot value through the worker's
// block-lifetime cache (committed state is immutable while the block runs,
// so cached values never go stale; see workerCache).
func (a *accessor) snapValue(id sag.ItemID) u256.Int {
	if c := a.snapCache; c != nil {
		return c.value(a.r.snap, id)
	}
	return snapFor(a.r.snap, id)
}

// readItem resolves a cross-transaction read through the access sequence,
// suspending this transaction (and yielding its execution slot) while the
// required version is pending. Re-attempts pass the previous waiter back so
// the scan resumes from the entry it parked on instead of rescanning the
// whole prefix.
func (a *accessor) readItem(id sag.ItemID) (u256.Int, error) {
	if a.forceStale {
		// Injected snapshot staleness: retire this incarnation as if the
		// read had been resolved from a stale snapshot and invalidated. The
		// abort path relaunches it (the fresh incarnation draws its own
		// fault decisions), so the block still converges.
		a.forceStale = false
		a.r.abortClassed(victim{tx: a.rt.idx, inc: a.inc, item: id, readSrc: -1}, a.rt.idx, eventlog.AbortInjected)
		return u256.Int{}, evm.ErrAborted
	}
	seq := a.r.seq(id)
	var w *seqWaiter
	for {
		if a.dead() {
			seq.cancelWaiter(w)
			return u256.Int{}, evm.ErrAborted
		}
		if g := a.r.gate; g != nil {
			// Replay: wait for this read's recorded turn. On a faithful
			// replay the claim guarantees every publish/drop stamped before
			// the read has been performed and none after, so the resolution
			// below cannot block; a blocked gated read means the schedule
			// already diverged, and the claim is released before parking.
			if !g.Await(eventlog.OpRead, a.rt.idx, a.inc, id, a.deadFn) {
				seq.cancelWaiter(w)
				return u256.Int{}, evm.ErrAborted
			}
		}
		snap := a.snapValue(id)
		val, res, src, next := seq.tryRead(a.rt.idx, a.inc, snap, a.deadFn, w)
		if g := a.r.gate; g != nil {
			g.Done()
		}
		if res == readAborted {
			return u256.Int{}, evm.ErrAborted
		}
		if res != readBlocked {
			a.rt.noteReadMark(a.inc, id)
			a.events = append(a.events, TraceEvent{Kind: TraceRead, Item: id, Offset: a.offset, Src: src, Val: val})
			return val, nil
		}
		w = next
		a.park(id, w)
	}
}

// park suspends this incarnation on w (yielding its execution slot) until
// the pending version it blocked on changes or the incarnation is aborted.
func (a *accessor) park(id sag.ItemID, w *seqWaiter) {
	a.r.stats.addBlocked()
	if lg := a.r.log; lg.Enabled() {
		lg.Record(eventlog.OpPark, a.rt.idx, a.inc, a.worker, w.blockedTx, id, u256.Int{})
	}
	a.r.sched.yield()
	select {
	case <-w.ch:
	case <-a.rt.abortChan(a.inc):
	}
	a.r.sched.reacquire(a.rt.idx)
	if lg := a.r.log; lg.Enabled() {
		lg.Record(eventlog.OpResume, a.rt.idx, a.inc, a.worker, w.blockedTx, id, u256.Int{})
	}
}

// readValue is the common read path with memoization and W-buffer hits.
func (a *accessor) readValue(id sag.ItemID) (u256.Int, error) {
	i := a.rec(id)
	rec := &a.items[i]
	if rec.hasW {
		return rec.w, nil
	}
	if rec.touch == touchDelta {
		return a.degradeRead(id, i)
	}
	if rec.hasCached {
		return rec.cached, nil
	}
	val, err := a.readItem(id)
	if err != nil {
		return u256.Int{}, err
	}
	rec = &a.items[i] // readItem never appends, but don't rely on it
	rec.hasCached = true
	rec.cached = val
	if rec.touch == touchNone {
		a.setTouch(i, touchRead)
	}
	return val, nil
}

// degradeRead converts a delta-mode item to a normal read-modify-write: the
// true base is resolved (blocking), the accumulated unpublished delta
// applied, and the item moves into the absolute write buffer. Any part of
// the delta already published early stays in the sequence as ω̄ — the sum
// remains exact.
func (a *accessor) degradeRead(id sag.ItemID, i int) (u256.Int, error) {
	base, err := a.readItem(id)
	if err != nil {
		return u256.Int{}, err
	}
	rec := &a.items[i]
	var val u256.Int
	val.Add(&base, &rec.pending)
	a.dropPendingJ(i)
	a.setTouch(i, touchWritten)
	a.setW(i, val)
	rec = &a.items[i]
	rec.hasCached = true
	rec.cached = base
	return val, nil
}

// --- write path -------------------------------------------------------------

func (a *accessor) writeAbs(id sag.ItemID, v u256.Int) error {
	i := a.rec(id)
	if a.r.opts.DisableWriteVersioning && a.items[i].touch == touchNone {
		// Single-version emulation: the first write to an item stalls until
		// every earlier writer finished (ww conflicts restored). The stall
		// is also recorded as a read-like trace dependency so the virtual
		// scheduling simulator reproduces the serialization.
		if err := a.waitPriorWrites(id); err != nil {
			return err
		}
		a.events = append(a.events, TraceEvent{Kind: TraceRead, Item: id, Offset: a.offset, Src: -1})
	}
	if a.items[i].touch == touchDelta {
		a.dropPendingJ(i)
	}
	a.setTouch(i, touchWritten)
	a.setW(i, v)
	a.items[i].writeEvts++
	return nil
}

// waitPriorWrites parks until lower-indexed writers of id are finished.
func (a *accessor) waitPriorWrites(id sag.ItemID) error {
	seq := a.r.seq(id)
	var w *seqWaiter
	for {
		if a.dead() {
			seq.cancelWaiter(w)
			return evm.ErrAborted
		}
		pending, next := seq.priorWritesPending(a.rt.idx, a.deadFn, w)
		if !pending {
			return nil
		}
		if next == nil {
			return evm.ErrAborted // incarnation retired while registering
		}
		w = next
		a.park(id, w)
	}
}

// --- evm.State --------------------------------------------------------------

// GetState implements evm.State.
func (a *accessor) GetState(addr types.Address, key types.Hash) (u256.Int, error) {
	id := sag.StorageItem(addr, key)
	if a.armDelta {
		a.armDelta = false
		i := a.rec(id)
		if t := a.items[i].touch; t == touchNone || t == touchDelta {
			if t == touchNone {
				a.setTouch(i, touchDelta)
			}
			a.deltaPending = id
			a.deltaPendingOK = true
			return u256.Int{}, nil
		}
	}
	return a.readValue(id)
}

// SetState implements evm.State.
func (a *accessor) SetState(addr types.Address, key types.Hash, v u256.Int) error {
	id := sag.StorageItem(addr, key)
	if a.armStore {
		a.armStore = false
		if a.deltaPendingOK && a.deltaPending == id {
			a.deltaPendingOK = false
			i := a.rec(id)
			a.addPending(i, &v)
			a.items[i].writeEvts++
			return nil
		}
	}
	return a.writeAbs(id, v)
}

// GetBalance implements evm.State.
func (a *accessor) GetBalance(addr types.Address) (u256.Int, error) {
	return a.readValue(sag.BalanceItem(addr))
}

// SetBalance implements evm.State.
func (a *accessor) SetBalance(addr types.Address, v u256.Int) error {
	return a.writeAbs(sag.BalanceItem(addr), v)
}

// AddBalance implements evm.BalanceAdder: blind credits stay deltas.
func (a *accessor) AddBalance(addr types.Address, delta u256.Int) error {
	id := sag.BalanceItem(addr)
	i := a.rec(id)
	if t := a.items[i].touch; !a.r.opts.DisableCommutative && (t == touchNone || t == touchDelta) {
		if t == touchNone {
			a.setTouch(i, touchDelta)
		}
		a.addPending(i, &delta)
		a.items[i].writeEvts++
		return nil
	}
	cur, err := a.readValue(id)
	if err != nil {
		return err
	}
	var next u256.Int
	next.Add(&cur, &delta)
	return a.writeAbs(id, next)
}

// GetNonce implements evm.State.
func (a *accessor) GetNonce(addr types.Address) (uint64, error) {
	v, err := a.readValue(sag.NonceItem(addr))
	if err != nil {
		return 0, err
	}
	return v.Uint64(), nil
}

// SetNonce implements evm.State. Protocol nonce bumps are unconditional —
// they survive deterministic reverts and out-of-gas — so the value is final
// the moment it is written and can be published immediately, without
// waiting for a release point. This keeps same-sender transaction chains
// from serializing on the nonce.
func (a *accessor) SetNonce(addr types.Address, v uint64) error {
	id := sag.NonceItem(addr)
	w := u256.NewUint64(v)
	if err := a.writeAbs(id, w); err != nil {
		return err
	}
	if !a.r.opts.DisableEarlyWrite {
		if err := a.publishAbs(id, w); err != nil {
			return err
		}
		a.r.stats.addEarly()
	}
	return nil
}

// GetCode implements evm.State.
func (a *accessor) GetCode(addr types.Address) ([]byte, error) {
	id := sag.CodeItem(addr)
	if i := a.find(id); i >= 0 && a.items[i].hasCode {
		return a.items[i].code, nil
	}
	val, err := a.readValue(id)
	if err != nil {
		return nil, err
	}
	if val.IsZero() {
		// No in-block deployment: committed code.
		return a.snapCode(addr), nil
	}
	return a.r.codeOf(types.HashFromWord(val)), nil
}

// snapCode reads addr's committed code through the worker's cache.
func (a *accessor) snapCode(addr types.Address) []byte {
	if c := a.snapCache; c != nil {
		return c.codeOf(a.r.snap, addr)
	}
	return a.r.snap.Code(addr)
}

// SetCode implements evm.State.
func (a *accessor) SetCode(addr types.Address, code []byte) error {
	id := sag.CodeItem(addr)
	h := a.r.storeCode(code)
	i := a.rec(id)
	a.setTouch(i, touchWritten)
	a.setWCode(i, code)
	a.setW(i, h.Word())
	a.items[i].writeEvts++
	return nil
}

// --- hooks: abort checks, commutative arming, release points ---------------

// Watch implements evm.Hooks: a registered contract's frames stop only at
// the pcs its watch table marks (sag.ContractInfo.Watch); a contract the
// registry does not know has no table and stops before every instruction.
func (a *accessor) Watch(addr types.Address) []byte {
	if info := a.lookupInfo(addr); info != nil {
		return info.Watch
	}
	return nil
}

// Step implements evm.Hooks. It runs before every watched instruction: it
// stops dead incarnations, keeps the top frame's gas offset, arms the
// commutative sites, and performs Algorithm 2's early-write visibility at
// release points. Extra stops are harmless: a stop the table does not ask for
// (the every-pc fallback) finds nothing to do.
func (a *accessor) Step(addr types.Address, depth int, pc uint64, op evm.Opcode, gasLeft uint64) error {
	if a.dead() {
		return evm.ErrAborted
	}
	if a.panicAfter > 0 {
		if a.panicAfter--; a.panicAfter == 0 {
			// Between instructions, no scheduler locks held: the safest spot
			// a genuine opcode-handler panic would surface from.
			panic(&fault.InjectedPanic{Block: int64(a.r.block.Number), Tx: a.rt.idx, Inc: a.inc})
		}
	}
	if depth == 1 {
		if pc == 0 {
			a.topGas = gasLeft
		}
		a.offset = BaseCost + a.topGas - gasLeft
	}
	info := a.lookupInfo(addr)
	if info == nil {
		return nil
	}
	w := info.WatchAt(pc)
	if !a.r.opts.DisableCommutative {
		switch {
		case w&sag.WatchCommLoad != 0:
			a.armDelta = true
		case w&sag.WatchCommStore != 0:
			a.armStore = true
		}
	}
	if depth != 1 || a.drained || a.r.opts.DisableEarlyWrite || a.suppressEarly {
		return nil
	}
	// The first released pc after a write is always a stop (sag.WatchRelease),
	// so asking at every stop publishes exactly where asking at every pc would.
	if info.Released(pc, gasLeft) {
		a.earlyPublish()
	}
	return nil
}

// earlyPublish makes buffered writes visible before commit (Algorithm 2):
// an item is published once its predicted write events have all happened
// (no write of it remains in the C-SAG's future). Items are visited in
// first-touch order, so publish order is deterministic for a deterministic
// execution (the map-backed predecessor published in random order).
func (a *accessor) earlyPublish() {
	csag := a.rt.csag
	if csag == nil {
		a.drained = true // nothing predicted: publish only at finish
		return
	}
	remaining := false
	for i := 0; i < len(a.items); i++ {
		rec := &a.items[i]
		if rec.hasW {
			if rec.hasPublished && rec.published.Eq(&rec.w) {
				continue
			}
			predicted, ok := csag.Writes[rec.id]
			if !ok || int(rec.writeEvts) < predicted {
				if ok {
					remaining = true
				}
				continue // unpredicted: finish-time only
			}
			if err := a.publishAbs(rec.id, rec.w); err != nil {
				return
			}
			a.r.stats.addEarly()
			continue
		}
		if rec.hasPending && !rec.pending.IsZero() {
			predicted, ok := csag.Deltas[rec.id]
			if !ok || int(rec.writeEvts) < predicted {
				if ok {
					remaining = true
				}
				continue
			}
			if err := a.publishDelta(rec.id, rec.pending); err != nil {
				return
			}
			a.r.stats.addEarly()
		}
	}
	a.drained = !remaining
}

// publishAbs inserts/updates this transaction's absolute version of id.
func (a *accessor) publishAbs(id sag.ItemID, v u256.Int) error {
	if g := a.r.gate; g != nil {
		if !g.Await(eventlog.OpPublish, a.rt.idx, a.inc, id, a.deadFn) {
			return evm.ErrAborted
		}
	}
	victims, err := a.rt.publish(a.r, a.inc, a.worker, id, v, false, !a.inFinish)
	if g := a.r.gate; g != nil {
		g.Done()
	}
	if err != nil {
		return err
	}
	i := a.rec(id)
	a.items[i].hasPublished = true
	a.items[i].published = v
	a.r.noteProgress()
	a.events = append(a.events, TraceEvent{Kind: TraceWrite, Item: id, Offset: a.offset, Src: -1, Val: v})
	for _, vic := range victims {
		a.r.abort(vic, a.rt.idx)
	}
	return nil
}

// publishDelta publishes an accumulated delta contribution and clears the
// local pending amount (later increments accumulate on the same entry).
func (a *accessor) publishDelta(id sag.ItemID, d u256.Int) error {
	if g := a.r.gate; g != nil {
		if !g.Await(eventlog.OpDelta, a.rt.idx, a.inc, id, a.deadFn) {
			return evm.ErrAborted
		}
	}
	victims, err := a.rt.publish(a.r, a.inc, a.worker, id, d, true, !a.inFinish)
	if g := a.r.gate; g != nil {
		g.Done()
	}
	if err != nil {
		return err
	}
	i := a.rec(id)
	a.items[i].hasPending = false
	a.items[i].pending = u256.Int{}
	a.items[i].publishedDel = true
	a.r.noteProgress()
	a.events = append(a.events, TraceEvent{Kind: TraceDelta, Item: id, Offset: a.offset, Src: -1, Val: d})
	a.r.stats.addDelta()
	for _, vic := range victims {
		a.r.abort(vic, a.rt.idx)
	}
	return nil
}

// finish publishes every remaining write, drops predicted writes that never
// materialized (so parked readers fall through to earlier versions), and
// records the receipt. It returns false if the incarnation died mid-way.
func (a *accessor) finish(receipt *types.Receipt) bool {
	a.inFinish = true
	a.offset = ExecCost(receipt.GasUsed, a.intrins)
	for i := 0; i < len(a.items); i++ {
		rec := &a.items[i]
		if !rec.hasW {
			continue
		}
		if rec.hasPublished && rec.published.Eq(&rec.w) {
			continue
		}
		if err := a.publishAbs(rec.id, rec.w); err != nil {
			return false
		}
	}
	for i := 0; i < len(a.items); i++ {
		rec := &a.items[i]
		if !rec.hasPending || rec.pending.IsZero() {
			continue
		}
		if err := a.publishDelta(rec.id, rec.pending); err != nil {
			return false
		}
	}
	// Drop predicted writes that never happened (deterministic revert or
	// path divergence): without this, parked readers would wait forever.
	// The drops run in sorted item order — map iteration would randomize
	// the schedule between otherwise identical executions, which the flight
	// recorder's deterministic replay relies on being reproducible.
	if csag := a.rt.csag; csag != nil {
		drop := func(id sag.ItemID) bool {
			if i := a.find(id); i >= 0 && (a.items[i].hasPublished || a.items[i].publishedDel) {
				return true
			}
			if g := a.r.gate; g != nil {
				if !g.Await(eventlog.OpDrop, a.rt.idx, a.inc, id, a.deadFn) {
					return false
				}
			}
			victims, err := a.rt.dropUnperformed(a.r, a.inc, id)
			if g := a.r.gate; g != nil {
				g.Done()
			}
			if err != nil {
				return false
			}
			for _, vic := range victims {
				a.r.abort(vic, a.rt.idx)
			}
			return true
		}
		a.scratch = a.scratch[:0]
		for id := range csag.Writes {
			a.scratch = append(a.scratch, id)
		}
		sortItems(a.scratch)
		for _, id := range a.scratch {
			if !drop(id) {
				return false
			}
		}
		a.scratch = a.scratch[:0]
		for id := range csag.Deltas {
			a.scratch = append(a.scratch, id)
		}
		sortItems(a.scratch)
		for _, id := range a.scratch {
			if !drop(id) {
				return false
			}
		}
	}
	if g := a.r.gate; g != nil {
		if !g.Await(eventlog.OpCommit, a.rt.idx, a.inc, sag.ItemID{}, a.deadFn) {
			return false
		}
		defer g.Done()
	}
	// The committed trace owns the events backing array from here on; hand
	// the accessor back without it.
	events := a.events
	a.events = nil
	if a.replayed != nil {
		retime(events, a.replayed)
	}
	return a.rt.complete(a.r, a.inc, a.worker, receipt, &TxTrace{Gas: ExecCost(receipt.GasUsed, a.intrins), Events: events})
}

// --- pre-run reuse ------------------------------------------------------------

// replay stands in for the interpreter when the C-SAG's pre-run is still a
// valid execution of this incarnation. The pre-run ran this transaction under
// this block context at this position, so the only thing that can differ is
// what its cross-transaction reads return: each is resolved again through
// readItem — marking, parking, gating and logging exactly as the interpreter's
// read would — and compared with the value the pre-run saw. If all agree, the
// interpreter would retrace the pre-run step for step; its writes, deltas and
// receipt are taken over instead and finish publishes them. A nil receipt
// with a nil error sends the incarnation to the interpreter: there is no
// usable outcome, the executor ablates part of the protocol the pre-run
// assumed, an injected panic is waiting for a hook stop, or a read came back
// different (the reads made so far are simply made again).
func (a *accessor) replay() (*types.Receipt, error) {
	var out *sag.Outcome
	if c := a.rt.csag; c != nil {
		out = c.Outcome
	}
	if !out.ValidFor(a.rt.tx, a.r.block, a.rt.idx) || a.r.opts != (Options{}) || a.panicAfter > 0 {
		return nil, nil
	}
	for i := range out.Reads {
		rd := &out.Reads[i]
		a.offset = traceOffset(rd.Offset)
		v, err := a.readItem(rd.Item)
		if err != nil {
			return nil, err
		}
		// A code read is the marker word (zero: nothing deployed in this
		// block) plus the committed code itself, which an earlier block may
		// have replaced since the analysis snapshot.
		if !v.Eq(&rd.Val) || rd.Item.Kind == sag.KindCode && !bytes.Equal(a.snapCode(rd.Item.Addr), rd.Code) {
			a.events = a.events[:0]
			a.offset = 0
			return nil, nil
		}
	}
	for i := range out.Writes {
		w := &out.Writes[i]
		rec := &a.items[a.rec(w.Item)]
		rec.touch, rec.hasW, rec.w = touchWritten, true, w.Val
		if w.Item.Kind == sag.KindCode {
			rec.hasCode, rec.code = true, w.Code
			a.r.storeCode(w.Code)
		}
	}
	for i := range out.Deltas {
		d := &out.Deltas[i]
		rec := &a.items[a.rec(d.Item)]
		rec.touch, rec.hasPending, rec.pending = touchDelta, true, d.Val
	}
	a.replayed = out
	receipt := *out.Receipt // the outcome is shared; the caller owns its receipt
	return &receipt, nil
}

// traceOffset converts a pre-run gas offset into TraceEvent units the way
// Step does: accesses made before the top frame starts sit at 0, the rest
// BaseCost later.
func traceOffset(gas uint64) uint64 {
	if gas == 0 {
		return 0
	}
	return BaseCost + gas
}

// retime gives the publish events of a replayed incarnation, all made at
// finish, the offsets at which the pre-run last wrote each item, and puts the
// trace back in offset order: the trace keeps modelling an interpreter run
// whose writes become visible as soon as they are final.
func retime(events []TraceEvent, out *sag.Outcome) {
	offsetIn := func(list []sag.Access, id sag.ItemID, otherwise uint64) uint64 {
		for i := range list {
			if list[i].Item == id {
				return traceOffset(list[i].Offset)
			}
		}
		return otherwise
	}
	for i := range events {
		switch ev := &events[i]; ev.Kind {
		case TraceWrite:
			ev.Offset = offsetIn(out.Writes, ev.Item, ev.Offset)
		case TraceDelta:
			ev.Offset = offsetIn(out.Deltas, ev.Item, ev.Offset)
		}
	}
	slices.SortStableFunc(events, func(a, b TraceEvent) int { return cmp.Compare(a.Offset, b.Offset) })
}

// itemLess orders ItemIDs (kind, address, slot) for deterministic iteration.
func itemLess(a, b sag.ItemID) bool {
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if c := bytes.Compare(a.Addr[:], b.Addr[:]); c != 0 {
		return c < 0
	}
	return bytes.Compare(a.Slot[:], b.Slot[:]) < 0
}

// sortItems insertion-sorts ids in place: the slices here are the handful of
// predicted-but-unperformed writes of one transaction, far below the
// crossover where an allocation-free insertion sort loses to sort.Slice.
func sortItems(ids []sag.ItemID) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && itemLess(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}
