package core

import (
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"

	"dmvcc/internal/evm"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// TestSequenceWaiterStress hammers one sequence with concurrent delta
// publishers, droppers and parked readers (run under -race in CI). Readers
// use the full park/resume waiter protocol; because every entry below a
// reader must be resolved before its scan completes, each reader's final
// value is exactly the sum of the published deltas beneath it.
func TestSequenceWaiterStress(t *testing.T) {
	const writers = 96
	const readers = 8
	s := newSequence(testItem())
	for i := 0; i < writers; i++ {
		s.addPredicted(i, kindDelta)
	}

	rng := rand.New(rand.NewSource(7))
	vals := make([]uint64, writers)
	dropped := make([]bool, writers)
	for i := range vals {
		vals[i] = uint64(1 + rng.Intn(1000))
		dropped[i] = rng.Intn(4) == 0
	}
	perm := rng.Perm(writers)

	var wg sync.WaitGroup
	results := make([]u256.Int, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			readerTx := writers + r // positioned after every writer
			var w *seqWaiter
			for {
				val, res, _, next := s.tryRead(readerTx, 0, u256.Zero, never, w)
				if res != readBlocked {
					results[r] = val
					return
				}
				w = next
				<-w.ch
			}
		}(r)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < writers; k += 4 {
				i := perm[k]
				if dropped[i] {
					s.dropVersion(i, 0)
				} else {
					s.versionWrite(i, 0, -1, u256.NewUint64(vals[i]), true, false)
				}
			}
		}(g)
	}
	wg.Wait()

	var want u256.Int
	for i := range vals {
		if !dropped[i] {
			d := u256.NewUint64(vals[i])
			want.Add(&want, &d)
		}
	}
	for r := range results {
		if !results[r].Eq(&want) {
			t.Errorf("reader %d saw %s, want %s", r, results[r].Hex(), want.Hex())
		}
	}
}

// TestAbortWastedGasFinishedIncarnation pins the WastedGas accounting of
// the abort path: a finished incarnation caught by a cascade contributes
// its full execution cost, an unfinished one contributes nothing here (its
// own goroutine accounts the partial gas when it observes the abort).
func TestAbortWastedGasFinishedIncarnation(t *testing.T) {
	r := &run{}
	for i := range r.shards {
		r.shards[i].m = make(map[sag.ItemID]*sequence)
	}
	r.sched = newPool(1, func(int, int) { r.wg.Done() })
	defer r.sched.shutdown()

	item := testItem()
	tx0 := &types.Transaction{Gas: 100_000}
	tx1 := &types.Transaction{Gas: 100_000}
	// tx0 published item but never finished; tx1 read the version and
	// finished with a receipt.
	r.rts = []*txRuntime{
		{idx: 0, tx: tx0, abortCh: make(chan struct{}), started: true, published: []sag.ItemID{item}},
		{idx: 1, tx: tx1, abortCh: make(chan struct{}), started: true, readMarks: []sag.ItemID{item},
			finished: true, receipt: &types.Receipt{GasUsed: 60_000}},
	}
	s := r.seq(item)
	s.versionWrite(0, 0, -1, u256.NewUint64(1), false, false)
	if _, res, _, _ := s.tryRead(1, 0, u256.Zero, never, nil); res == readBlocked {
		t.Fatal("setup read blocked")
	}

	r.abort(victim{tx: 0, inc: 0}, -1)
	r.wg.Wait()

	if got := r.stats.aborts.Load(); got != 2 {
		t.Fatalf("aborts = %d, want tx0 and the cascaded tx1", got)
	}
	want := ExecCost(60_000, evm.IntrinsicGas(tx1.Data))
	if got := r.wasted.Load(); got != want {
		t.Errorf("wasted = %d, want tx1's full cost %d (tx0 was mid-flight)", got, want)
	}
	if got := r.stats.requeues.Load(); got != 2 {
		t.Errorf("requeues = %d, want 2", got)
	}
}

// TestAbortCascadeIterativeDepth builds a synthetic dependency chain of
// 50k transactions — each published one item that the next one read — and
// aborts the head. The cascade must traverse the whole chain without stack
// growth: the stack cap is lowered so a recursive implementation dies
// loudly while the iterative worklist runs in constant stack.
func TestAbortCascadeIterativeDepth(t *testing.T) {
	const n = 50_000
	prev := debug.SetMaxStack(4 << 20)
	defer debug.SetMaxStack(prev)

	r := &run{}
	for i := range r.shards {
		r.shards[i].m = make(map[sag.ItemID]*sequence)
	}
	r.sched = newPool(1, func(int, int) { r.wg.Done() })

	addr := types.HexToAddress("0xabcd")
	item := func(i int) sag.ItemID {
		return sag.StorageItem(addr, types.HashFromWord(u256.NewUint64(uint64(i))))
	}
	r.rts = make([]*txRuntime, n+1)
	for i := 0; i <= n; i++ {
		rt := &txRuntime{idx: i, abortCh: make(chan struct{}), started: true}
		if i < n {
			rt.published = []sag.ItemID{item(i)}
		}
		if i > 0 {
			rt.readMarks = []sag.ItemID{item(i - 1)}
		}
		r.rts[i] = rt
	}
	for i := 0; i < n; i++ {
		s := r.seq(item(i))
		s.versionWrite(i, 0, -1, u256.NewUint64(uint64(i)), false, false)
		// Transaction i+1 completed a read of transaction i's version.
		if _, res, _, _ := s.tryRead(i+1, 0, u256.Zero, never, nil); res == readBlocked {
			t.Fatal("setup read blocked")
		}
	}

	r.abort(victim{tx: 0, inc: 0}, -1)
	r.wg.Wait() // every relaunched incarnation ran through the pool
	r.sched.shutdown()

	if got := r.stats.aborts.Load(); got != n+1 {
		t.Errorf("aborts = %d, want %d (whole chain)", got, n+1)
	}
	for i, rt := range r.rts {
		if rt.curInc() != 1 {
			t.Fatalf("tx %d incarnation = %d, want 1", i, rt.curInc())
		}
	}
}
