package sag

import (
	"fmt"
	"sync"
	"sync/atomic"

	"dmvcc/internal/evm"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// Analyzer refines P-SAGs into C-SAGs by executing each transaction's
// forward slice against the latest committed snapshot (§IV-A): storage keys
// that depend on runtime values are resolved with actual snapshot data, and
// loops are effectively unrolled by the concrete run. If the snapshot
// values a C-SAG was derived from are overwritten by earlier transactions
// in the block, the runtime abort mechanism restores correctness.
type Analyzer struct {
	reg     *Registry
	threads int
}

// NewAnalyzer returns an analyzer over the contract registry. It analyzes
// blocks on one goroutine until SetThreads says otherwise.
func NewAnalyzer(reg *Registry) *Analyzer {
	return &Analyzer{reg: reg, threads: 1}
}

// SetThreads sets how many goroutines AnalyzeBlock spreads a block over
// (the engine passes the thread count its schedulers run on).
func (a *Analyzer) SetThreads(n int) {
	if n < 1 {
		n = 1
	}
	a.threads = n
}

// Registry returns the contract registry backing the analyzer.
func (a *Analyzer) Registry() *Registry { return a.reg }

// Analyze produces the C-SAG of tx at block position idx against snapshot.
func (a *Analyzer) Analyze(tx *types.Transaction, idx int, snapshot state.Reader, block evm.BlockContext) (*CSAG, error) {
	return newRecorder(a.reg, snapshot).analyze(tx, idx, block)
}

// AnalyzeBlock analyzes every transaction of a block against the same
// snapshot (the paper performs this offline, in the transaction pool). The
// pre-runs are independent — each executes against its own overlay on the
// immutable snapshot — so they are spread over the analyzer's threads, one
// reused recorder per thread. C-SAGs land by block position and a failure
// reports the lowest failing position, so the result does not depend on how
// the goroutines interleave.
func (a *Analyzer) AnalyzeBlock(txs []*types.Transaction, snapshot state.Reader, block evm.BlockContext) ([]*CSAG, error) {
	out := make([]*CSAG, len(txs))
	recs := make([]*recorder, a.threads)
	err := fanOut(len(txs), a.threads, func(worker, i int) error {
		rec := recs[worker]
		if rec == nil {
			rec = newRecorder(a.reg, snapshot)
			recs[worker] = rec
		}
		c, err := rec.analyze(txs[i], i, block)
		out[i] = c
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// fanOut calls fn(worker, i) for every i in [0, n) on up to workers
// goroutines (worker identifies the calling goroutine, so fn can keep
// per-goroutine state without locking) and returns the error of the lowest
// failing i — the error a sequential loop would have stopped at. Indices are
// claimed in increasing order and everything below a failure still runs, so
// a lower failure is never missed; indices above it are skipped.
func fanOut(n, workers int, fn func(worker, i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next   atomic.Int64
		failAt atomic.Int64 // lowest failing index so far
		wg     sync.WaitGroup
	)
	failAt.Store(int64(n))
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i > failAt.Load() {
					return
				}
				if errs[i] = fn(w, int(i)); errs[i] == nil {
					continue
				}
				for { // failAt = min(failAt, i); nothing above i is worth claiming
					cur := failAt.Load()
					if i >= cur || failAt.CompareAndSwap(cur, i) {
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if f := failAt.Load(); f < int64(n) {
		return errs[f]
	}
	return nil
}

// touchKind tracks how this transaction has touched an item so far; it
// decides whether a blind increment may run in delta mode.
type touchKind uint8

const (
	touchNone touchKind = iota
	touchRead
	touchDelta
	touchWritten
)

// recItem is everything the pre-run knows about one touched item: its
// classification, the value shadowing the snapshot, and the accumulated
// blind-increment delta. A zero record (apart from id) is an untouched item,
// so reverting an item's first touch just restores zero fields.
type recItem struct {
	id    ItemID
	touch touchKind

	// read marks a cross-transaction read dependency (ρ). Like events, it
	// survives reverts: the value was observed whether or not the frame that
	// observed it is later undone, and the runtime accessor counts the same.
	read       bool
	hasVal     bool // val (code, for code items) shadows the snapshot
	hasPending bool
	events     int    // write events so far
	at         uint64 // recorder.gas at the last of them

	val     u256.Int
	pending u256.Int // accumulated delta of a delta-mode item
	code    []byte
}

// recSpill is the item count past which the recorder indexes its vector with
// a map; below it a linear scan beats hashing a 53-byte ItemID (the same
// trade the DMVCC accessor makes).
const recSpill = 24

// recUndoKind selects which recItem field a journal entry restores.
type recUndoKind uint8

const (
	recUndoTouch recUndoKind = iota + 1
	recUndoVal
	recUndoPending
)

// recUndo is one typed entry of the revert journal; items are addressed by
// vector index (records are never removed within a transaction).
type recUndo struct {
	kind recUndoKind
	had  bool
	tk   touchKind
	item int32
	val  u256.Int
	code []byte
}

// recorder is the analysis-time state accessor: it executes against its own
// write buffer over the snapshot while recording the access classification
// that becomes the C-SAG. Its delta/degrade protocol is mirrored exactly by
// the DMVCC runtime accessor so predictions line up with runtime behaviour.
// One recorder serves many transactions in turn (see analyze); it is not
// safe for concurrent use.
type recorder struct {
	reg  *Registry
	memo Memo // of reg, for the hooks
	snap state.Reader

	items []recItem
	spill map[ItemID]int32 // index over items, built past recSpill

	journal []recUndo
	snaps   []int

	// reads are the outcome's read observations so far, and gas the gas the
	// top frame has consumed as of the last hook stop (every state access of
	// a registered contract is one), from its starting gas topGas.
	reads  []Access
	topGas uint64
	gas    uint64

	// comm-site arming, set by the step hook for the next Get/SetState.
	armDelta bool
	armStore bool
	// deltaPending is the item whose blind-increment store is expected.
	deltaPending   ItemID
	deltaPendingOK bool
}

var (
	_ evm.State        = (*recorder)(nil)
	_ evm.BalanceAdder = (*recorder)(nil)
	_ evm.Hooks        = (*recorder)(nil)
)

func newRecorder(reg *Registry, snap state.Reader) *recorder {
	return &recorder{reg: reg, snap: snap}
}

// analyze pre-runs tx against the snapshot and returns its C-SAG, leaving
// the recorder empty (capacity kept) for the next transaction.
func (r *recorder) analyze(tx *types.Transaction, idx int, block evm.BlockContext) (*CSAG, error) {
	defer r.reset()
	receipt, err := evm.ApplyTransaction(r, block, tx, idx, r)
	if err != nil {
		return nil, fmt.Errorf("sag: analysis pre-run of tx %d: %w", idx, err)
	}
	return r.finish(tx, idx, block, receipt), nil
}

func (r *recorder) reset() {
	clear(r.items) // drop code references
	r.items = r.items[:0]
	r.spill = nil
	clear(r.journal)
	r.journal = r.journal[:0]
	r.snaps = r.snaps[:0]
	clear(r.reads)
	r.reads = r.reads[:0]
	r.topGas, r.gas = 0, 0
	r.armDelta, r.armStore, r.deltaPendingOK = false, false, false
	r.memo = Memo{}
}

// Watch implements evm.Hooks: registered contracts stop only where their
// watch table says; unknown ones have no table and stop everywhere.
func (r *recorder) Watch(addr types.Address) []byte {
	if info := r.memo.Lookup(r.reg, addr); info != nil {
		return info.Watch
	}
	return nil
}

// Step implements evm.Hooks: it keeps the top frame's gas offset and arms
// delta mode when execution reaches a commutative site.
func (r *recorder) Step(addr types.Address, depth int, pc uint64, op evm.Opcode, gas uint64) error {
	if depth == 1 {
		if pc == 0 {
			r.topGas = gas
		}
		r.gas = r.topGas - gas
	}
	if op != evm.SLOAD && op != evm.SSTORE {
		return nil
	}
	info := r.memo.Lookup(r.reg, addr)
	if info == nil {
		return nil
	}
	switch w := info.WatchAt(pc); {
	case w&WatchCommLoad != 0:
		r.armDelta = true
	case w&WatchCommStore != 0:
		r.armStore = true
	}
	return nil
}

// rec returns the index of id's record, appending an untouched one if absent.
func (r *recorder) rec(id ItemID) int {
	if r.spill != nil {
		if i, ok := r.spill[id]; ok {
			return int(i)
		}
	} else {
		for i := range r.items {
			if r.items[i].id == id {
				return i
			}
		}
	}
	i := len(r.items)
	r.items = append(r.items, recItem{id: id})
	if r.spill != nil {
		r.spill[id] = int32(i)
	} else if len(r.items) > recSpill {
		r.spill = make(map[ItemID]int32, 2*len(r.items))
		for j := range r.items {
			r.spill[r.items[j].id] = int32(j)
		}
	}
	return i
}

func (r *recorder) setTouch(i int, t touchKind) {
	it := &r.items[i]
	r.journal = append(r.journal, recUndo{kind: recUndoTouch, item: int32(i), tk: it.touch})
	it.touch = t
}

// setVal shadows the snapshot value (and code, for code items) of item i.
func (r *recorder) setVal(i int, v u256.Int, code []byte) {
	it := &r.items[i]
	r.journal = append(r.journal, recUndo{kind: recUndoVal, item: int32(i), had: it.hasVal, val: it.val, code: it.code})
	it.hasVal, it.val, it.code = true, v, code
}

func (r *recorder) addPending(i int, v *u256.Int) {
	it := &r.items[i]
	r.journal = append(r.journal, recUndo{kind: recUndoPending, item: int32(i), had: it.hasPending, val: it.pending})
	it.pending.Add(&it.pending, v)
	it.hasPending = true
}

func (r *recorder) dropPending(i int) {
	it := &r.items[i]
	if !it.hasPending {
		return
	}
	r.journal = append(r.journal, recUndo{kind: recUndoPending, item: int32(i), had: true, val: it.pending})
	it.hasPending, it.pending = false, u256.Int{}
}

// recordRead notes a cross-transaction read dependency on item i (touch
// state touchNone). The first such read of an item is the one whose value the
// transaction acts on — the DMVCC accessor memoizes it the same way — so it is
// the one the outcome keeps.
func (r *recorder) recordRead(i int, v u256.Int, code []byte) {
	if !r.items[i].read {
		r.items[i].read = true
		r.observe(i, v, code)
	}
	r.setTouch(i, touchRead)
}

// observe appends a read of item i to the outcome.
func (r *recorder) observe(i int, v u256.Int, code []byte) {
	r.reads = append(r.reads, Access{Item: r.items[i].id, Val: v, Code: code, Offset: r.gas})
}

// wrote counts a write event on item i.
func (r *recorder) wrote(i int) {
	r.items[i].events++
	r.items[i].at = r.gas
}

// snapValue reads an item's value from the snapshot (never the buffer).
func (r *recorder) snapValue(id ItemID) u256.Int {
	switch id.Kind {
	case KindStorage:
		return r.snap.Storage(id.Addr, id.Slot)
	case KindBalance:
		return r.snap.Balance(id.Addr)
	case KindNonce:
		return u256.NewUint64(r.snap.Nonce(id.Addr))
	default:
		return u256.Int{}
	}
}

// value is the transaction's current view of item i: its own write if it
// made one, the snapshot otherwise.
func (r *recorder) value(i int) u256.Int {
	if it := &r.items[i]; it.hasVal {
		return it.val
	}
	return r.snapValue(r.items[i].id)
}

// degradeRead converts a delta-mode item back to a normal read-modify-write
// because the transaction went on to observe its value: the true base is
// resolved, the accumulated delta applied, and the item reclassified.
func (r *recorder) degradeRead(i int) u256.Int {
	base := r.snapValue(r.items[i].id)
	var val u256.Int
	val.Add(&base, &r.items[i].pending)
	r.dropPending(i)
	r.setTouch(i, touchWritten)
	r.items[i].read = true
	r.observe(i, base, nil)
	r.setVal(i, val, nil)
	return val
}

// read is the common read path of balances, nonces and storage slots.
func (r *recorder) read(id ItemID) u256.Int {
	i := r.rec(id)
	switch r.items[i].touch {
	case touchDelta:
		return r.degradeRead(i)
	case touchNone:
		v := r.snapValue(id)
		r.recordRead(i, v, nil)
		return v
	}
	return r.value(i)
}

// write is the common absolute-write path: it supersedes accumulated deltas.
func (r *recorder) write(id ItemID, v u256.Int, code []byte) {
	i := r.rec(id)
	if r.items[i].touch == touchDelta {
		r.dropPending(i)
	}
	r.setTouch(i, touchWritten)
	r.setVal(i, v, code)
	r.wrote(i)
}

// GetState implements evm.State.
func (r *recorder) GetState(addr types.Address, key types.Hash) (u256.Int, error) {
	id := StorageItem(addr, key)
	if r.armDelta {
		r.armDelta = false
		i := r.rec(id)
		if t := r.items[i].touch; t == touchNone || t == touchDelta {
			// Blind-increment base: any base works, the store records the
			// difference. Zero keeps pre-run and runtime identical.
			if t == touchNone {
				r.setTouch(i, touchDelta)
			}
			r.deltaPending, r.deltaPendingOK = id, true
			return u256.Int{}, nil
		}
	}
	return r.read(id), nil
}

// SetState implements evm.State.
func (r *recorder) SetState(addr types.Address, key types.Hash, v u256.Int) error {
	id := StorageItem(addr, key)
	if r.armStore {
		r.armStore = false
		if r.deltaPendingOK && r.deltaPending == id {
			r.deltaPendingOK = false
			// Base was zero, so the stored value is the delta contribution.
			i := r.rec(id)
			r.addPending(i, &v)
			r.wrote(i)
			return nil
		}
	}
	r.write(id, v, nil)
	return nil
}

// GetBalance implements evm.State.
func (r *recorder) GetBalance(addr types.Address) (u256.Int, error) {
	return r.read(BalanceItem(addr)), nil
}

// SetBalance implements evm.State.
func (r *recorder) SetBalance(addr types.Address, v u256.Int) error {
	r.write(BalanceItem(addr), v, nil)
	return nil
}

// AddBalance implements evm.BalanceAdder: a blind credit is a delta unless
// the transaction already observed or wrote the balance.
func (r *recorder) AddBalance(addr types.Address, delta u256.Int) error {
	i := r.rec(BalanceItem(addr))
	if t := r.items[i].touch; t == touchNone || t == touchDelta {
		if t == touchNone {
			r.setTouch(i, touchDelta)
		}
		r.addPending(i, &delta)
	} else {
		// The credit lands on a value the transaction has seen, so from here
		// on the item is an absolute write.
		cur := r.value(i)
		var next u256.Int
		next.Add(&cur, &delta)
		r.setTouch(i, touchWritten)
		r.setVal(i, next, nil)
	}
	r.wrote(i)
	return nil
}

// GetNonce implements evm.State.
func (r *recorder) GetNonce(addr types.Address) (uint64, error) {
	v := r.read(NonceItem(addr))
	return v.Uint64(), nil
}

// SetNonce implements evm.State.
func (r *recorder) SetNonce(addr types.Address, v uint64) error {
	r.write(NonceItem(addr), u256.NewUint64(v), nil)
	return nil
}

// GetCode implements evm.State.
func (r *recorder) GetCode(addr types.Address) ([]byte, error) {
	i := r.rec(CodeItem(addr))
	if it := &r.items[i]; it.hasVal {
		return it.code, nil
	}
	code := r.snap.Code(addr)
	if r.items[i].touch == touchNone {
		r.recordRead(i, u256.Int{}, code)
	}
	return code, nil
}

// SetCode implements evm.State.
func (r *recorder) SetCode(addr types.Address, code []byte) error {
	r.write(CodeItem(addr), types.Keccak(code).Word(), code)
	return nil
}

// Snapshot implements evm.State.
func (r *recorder) Snapshot() int {
	r.snaps = append(r.snaps, len(r.journal))
	return len(r.snaps) - 1
}

// RevertToSnapshot implements evm.State.
func (r *recorder) RevertToSnapshot(rev int) {
	mark := r.snaps[rev]
	for j := len(r.journal) - 1; j >= mark; j-- {
		u := &r.journal[j]
		it := &r.items[u.item]
		switch u.kind {
		case recUndoTouch:
			it.touch = u.tk
		case recUndoVal:
			it.hasVal, it.val, it.code = u.had, u.val, u.code
		case recUndoPending:
			it.hasPending, it.pending = u.had, u.val
		}
	}
	clear(r.journal[mark:])
	r.journal = r.journal[:mark]
	r.snaps = r.snaps[:rev]
}

// finish assembles the C-SAG and the pre-run's outcome from the recorded
// classification. The maps and slices are the C-SAG's own, sized exactly: the
// recorder moves on to another transaction.
func (r *recorder) finish(tx *types.Transaction, idx int, block evm.BlockContext, receipt *types.Receipt) *CSAG {
	var reads, writes, deltas, pending int
	for i := range r.items {
		it := &r.items[i]
		if it.read {
			reads++
		}
		switch it.touch {
		case touchWritten:
			writes++
		case touchDelta:
			deltas++
			if it.hasPending {
				pending++
			}
		}
	}
	// One backing array for the three access lists.
	nr := len(r.reads)
	buf := append(make([]Access, 0, nr+writes+pending), r.reads...)
	out := &Outcome{
		Tx:      tx,
		Block:   block,
		TxIndex: idx,
		Receipt: receipt,
		Reads:   buf[:nr:nr],
		Writes:  buf[nr : nr : nr+writes],
		Deltas:  buf[nr+writes : nr+writes : nr+writes+pending],
	}
	c := &CSAG{
		TxIndex: idx,
		Reads:   make(map[ItemID]struct{}, reads),
		Writes:  make(map[ItemID]int, writes),
		Deltas:  make(map[ItemID]int, deltas),
		Outcome: out,
	}
	for i := range r.items {
		it := &r.items[i]
		if it.read {
			c.Reads[it.id] = struct{}{}
		}
		switch it.touch {
		case touchWritten:
			c.Writes[it.id] = it.events
			out.Writes = append(out.Writes, Access{Item: it.id, Val: it.val, Code: it.code, Offset: it.at})
		case touchDelta:
			c.Deltas[it.id] = it.events
			if it.hasPending {
				out.Deltas = append(out.Deltas, Access{Item: it.id, Val: it.pending, Offset: it.at})
			}
		}
	}
	return c
}
