package core

import (
	"sync"
	"testing"

	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

// execWithBatch runs one deterministic high-contention block through an
// executor whose dispatch run-length cap is maxBatch and returns the
// committed root plus stats. Each call builds its own world so commits
// never interfere.
func execWithBatch(t *testing.T, threads, maxBatch int) (types.Hash, Stats) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.TxPerBlock = 96
	cfg.Seed = 7
	world, err := workload.BuildWorld(cfg.HighContention())
	if err != nil {
		t.Fatal(err)
	}
	blockCtx := world.BlockContext()
	txs := world.NextBlock()
	an := sag.NewAnalyzer(world.Registry)
	csags, err := an.AnalyzeBlock(txs, world.DB, blockCtx)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(world.Registry, threads)
	ex.maxBatch = maxBatch
	res, err := ex.ExecuteBlock(world.DB, blockCtx, txs, csags)
	if err != nil {
		t.Fatal(err)
	}
	root, err := world.DB.Commit(res.WriteSet)
	if err != nil {
		t.Fatal(err)
	}
	return root, res.Stats
}

// TestBatchDispatchDeterminism: at one thread, handing workers batches must
// be observationally identical to single-transaction dispatch — same
// execution/abort/publish counters, same committed root. Only the dispatch
// telemetry may differ (that is the point of batching).
func TestBatchDispatchDeterminism(t *testing.T) {
	rootSingle, single := execWithBatch(t, 1, 1)
	rootBatched, batched := execWithBatch(t, 1, defaultMaxBatch)

	if rootSingle != rootBatched {
		t.Fatalf("roots diverge: single-tx dispatch %s, batched %s", rootSingle, rootBatched)
	}
	type observable struct {
		executions, aborts, early, delta, blocked, requeues int64
	}
	obs := func(s Stats) observable {
		return observable{s.Executions, s.Aborts, s.EarlyPublishes, s.DeltaPublishes, s.BlockedReads, s.Requeues}
	}
	if obs(single) != obs(batched) {
		t.Errorf("stats diverge at 1 thread: single %+v, batched %+v", obs(single), obs(batched))
	}
	if single.DispatchRuns != single.DispatchedTxs {
		t.Errorf("maxBatch=1 dispatched %d txs in %d runs, want one tx per run",
			single.DispatchedTxs, single.DispatchRuns)
	}
	if batched.DispatchRuns >= batched.DispatchedTxs {
		t.Errorf("batched dispatch made %d hand-offs for %d txs: batching never engaged",
			batched.DispatchRuns, batched.DispatchedTxs)
	}

	// Multi-threaded runs may schedule differently but must commit the same
	// state either way.
	rootSingle4, _ := execWithBatch(t, 4, 1)
	rootBatched4, _ := execWithBatch(t, 4, defaultMaxBatch)
	if rootSingle4 != rootBatched4 || rootSingle4 != rootSingle {
		t.Fatalf("4-thread roots diverge: single %s, batched %s, 1-thread %s",
			rootSingle4, rootBatched4, rootSingle)
	}
}

// TestPoolRunLengthPolicy pins the adaptive run-length rule: an even split
// of the ready set across threads, capped at maxBatch, collapsing to
// single-transaction dispatch while parked readers wait for slots.
func TestPoolRunLengthPolicy(t *testing.T) {
	p := &pool{threads: 4, maxBatch: defaultMaxBatch}
	for i := 0; i < 100; i++ {
		p.ready.push(i)
	}
	if got := p.runLenLocked(); got != 25 {
		t.Errorf("100 ready / 4 threads: run length %d, want 25", got)
	}
	p.resume = resumerHeap{{idx: 3}}
	if got := p.runLenLocked(); got != 1 {
		t.Errorf("with parked resumers: run length %d, want 1", got)
	}
	p.resume = nil
	for i := 100; i < 1000; i++ {
		p.ready.push(i)
	}
	if got := p.runLenLocked(); got != defaultMaxBatch {
		t.Errorf("1000 ready / 4 threads: run length %d, want cap %d", got, defaultMaxBatch)
	}
}

// TestPoolBatchSpawnAccounting: a block enqueued in one shot on T threads
// must not create a goroutine per transaction (run-granular spawning keeps
// the worker count at T when nothing parks), the dispatch telemetry must
// cover every transaction exactly once, and batching must actually engage
// (each dispatch takes an even share of the remaining ready set, so the
// run count stays far below the transaction count).
func TestPoolBatchSpawnAccounting(t *testing.T) {
	var wg sync.WaitGroup
	p := newPool(4, func(int, int) { wg.Done() })
	wg.Add(256)
	p.enqueueAll(256)
	wg.Wait()
	p.shutdown()

	runs, runTxs := p.runStats()
	if runTxs != 256 {
		t.Errorf("dispatch telemetry covered %d txs, want 256", runTxs)
	}
	// The first wave alone is 4 runs; worker-timing decides how the tail
	// splits, but the mean run length must stay well above single-tx
	// dispatch (256 runs) for batching to mean anything.
	if runs < 4 || runs > 64 {
		t.Errorf("256 txs on 4 threads dispatched %d runs, want 4..64", runs)
	}
	if sp := p.workersSpawned(); sp > 4 {
		t.Errorf("spawned %d workers for a no-park block on 4 threads, want <= 4", sp)
	}
}

// TestAccessorResetLeaksNothing is the poisoned-arena test: dirty every
// field of an accessor — including retained backing arrays — and verify
// reset leaves no value, code reference, or flag observable by the next
// incarnation that reuses the pooled object.
func TestAccessorResetLeaksNothing(t *testing.T) {
	r := &run{}
	a := r.getAccessor()

	var addr types.Address
	addr[0] = 0xaa
	id := sag.StorageItem(addr, types.Hash{1})
	a.items = append(a.items, itemRec{
		id: id, touch: touchWritten,
		hasW: true, hasPending: true, hasCached: true, hasPublished: true,
		publishedDel: true, hasCode: true, writeEvts: 3,
		w: u256.NewUint64(77), pending: u256.NewUint64(5),
		cached: u256.NewUint64(9), published: u256.NewUint64(13),
		code: []byte{0xde, 0xad},
	})
	a.spill = map[sag.ItemID]int32{id: 0}
	a.journal = append(a.journal, undo{had: true, item: 0, val: u256.NewUint64(7), code: []byte{1}})
	a.snaps = append(a.snaps, 1)
	a.events = append(a.events, TraceEvent{Item: id, Offset: 42})
	a.armDelta, a.armStore = true, true
	a.deltaPending, a.deltaPendingOK = id, true
	a.drained = true
	a.memo.Lookup(sag.NewRegistry(), id.Addr)
	a.topGas, a.offset, a.intrins = 10, 20, 30
	a.worker, a.inFinish = 5, true
	a.panicAfter, a.forceStale, a.suppressEarly = 2, true, true

	itemCap, journalCap := cap(a.items), cap(a.journal)
	a.reset()

	if len(a.items) != 0 || len(a.journal) != 0 || len(a.snaps) != 0 || len(a.events) != 0 {
		t.Fatalf("reset left live entries: items=%d journal=%d snaps=%d events=%d",
			len(a.items), len(a.journal), len(a.snaps), len(a.events))
	}
	if a.spill != nil {
		t.Error("reset kept the spill index")
	}
	// The backing arrays are retained for capacity — their contents must be
	// zeroed so a reused record can never resurrect a previous incarnation's
	// value or pin its code bytes in memory.
	for _, rec := range a.items[:itemCap] {
		dirty := rec.id != (sag.ItemID{}) || rec.touch != touchNone ||
			rec.hasW || rec.hasPending || rec.hasCached || rec.hasPublished ||
			rec.publishedDel || rec.hasCode || rec.writeEvts != 0 ||
			!rec.w.IsZero() || !rec.pending.IsZero() || !rec.cached.IsZero() ||
			!rec.published.IsZero() || rec.code != nil
		if dirty {
			t.Fatalf("retained item record not zeroed: %+v", rec)
		}
	}
	for i, u := range a.journal[:journalCap] {
		if u.had || u.code != nil || !u.val.IsZero() {
			t.Fatalf("retained journal record %d not zeroed: %+v", i, u)
		}
	}
	if a.armDelta || a.armStore || a.deltaPendingOK || a.drained ||
		a.inFinish || a.forceStale || a.suppressEarly {
		t.Error("reset left a flag set")
	}
	if a.deltaPending != (sag.ItemID{}) || a.memo != (sag.Memo{}) {
		t.Error("reset left identity fields set")
	}
	if a.topGas != 0 || a.offset != 0 || a.intrins != 0 || a.worker != 0 || a.panicAfter != 0 {
		t.Error("reset left counters set")
	}
	r.putAccessor(a)
}
