package fault

import (
	"math"
	"sync"
	"testing"
	"time"

	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// TestNilInjectorNeverFires pins the nil-receiver contract every hot-path
// call site relies on.
func TestNilInjectorNeverFires(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	for _, p := range Points() {
		if in.Fire(p, 1, 2, 3) {
			t.Fatalf("nil injector fired %v", p)
		}
		if d := in.DelayFor(p, 1, 2, 3); d != 0 {
			t.Fatalf("nil injector delays %v", d)
		}
		if in.Fired(p) != 0 {
			t.Fatalf("nil injector counted fires for %v", p)
		}
	}
	if in.Counts() != nil {
		t.Fatal("nil injector returned counts")
	}
	if got := CorruptCSAGs(in, 1, []*sag.CSAG{sag.NewCSAG(0)}); got[0].TxIndex != 0 {
		t.Fatal("nil injector corrupted a C-SAG")
	}
}

// TestZeroRateInjectorDisabled: an injector with no positive rates is inert.
func TestZeroRateInjectorDisabled(t *testing.T) {
	in := New(Config{Seed: 7})
	if in.Enabled() {
		t.Fatal("rate-free injector reports enabled")
	}
	in = New(Config{Seed: 7, Rates: map[Point]float64{WorkerPanic: 0}})
	if in.Enabled() || in.Fire(WorkerPanic, 0, 0, 0) {
		t.Fatal("zero-rate point fired")
	}
}

// TestDeterminism: decisions depend only on (seed, point, block, tx, aux),
// not on call order or concurrency.
func TestDeterminism(t *testing.T) {
	mk := func() *Injector {
		return New(Config{Seed: 42, Rates: map[Point]float64{
			WorkerPanic:   0.3,
			SnapshotStale: 0.5,
		}})
	}
	a, b := mk(), mk()

	type key struct {
		p       Point
		block   int64
		tx, aux int
	}
	var keys []key
	for blkN := int64(0); blkN < 8; blkN++ {
		for tx := 0; tx < 16; tx++ {
			for aux := 0; aux < 3; aux++ {
				keys = append(keys, key{WorkerPanic, blkN, tx, aux})
				keys = append(keys, key{SnapshotStale, blkN, tx, aux})
			}
		}
	}
	// Sequential pass on a.
	want := make(map[key]bool, len(keys))
	for _, k := range keys {
		want[k] = a.Fire(k.p, k.block, k.tx, k.aux)
	}
	// Concurrent, shuffled-by-scheduling pass on b must agree everywhere.
	var mu sync.Mutex
	got := make(map[key]bool, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(off int) {
			defer wg.Done()
			for i := off; i < len(keys); i += 8 {
				k := keys[i]
				f := b.Fire(k.p, k.block, k.tx, k.aux)
				mu.Lock()
				got[k] = f
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	fired := 0
	for _, k := range keys {
		if want[k] != got[k] {
			t.Fatalf("decision for %+v differs across runs: %v vs %v", k, want[k], got[k])
		}
		if want[k] {
			fired++
		}
	}
	if fired == 0 || fired == len(keys) {
		t.Fatalf("degenerate fire pattern: %d/%d", fired, len(keys))
	}
	// Different seeds must produce a different schedule.
	c := New(Config{Seed: 43, Rates: map[Point]float64{WorkerPanic: 0.3, SnapshotStale: 0.5}})
	diff := 0
	for _, k := range keys {
		if c.Fire(k.p, k.block, k.tx, k.aux) != want[k] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seed change did not alter the fault schedule")
	}
}

// TestRateExtremes: rate 1.0 always fires; observed frequency of a middling
// rate is in the right ballpark.
func TestRateExtremes(t *testing.T) {
	always := New(Config{Seed: 1, Rates: map[Point]float64{SnapshotStale: 1.0}})
	for tx := 0; tx < 1000; tx++ {
		if !always.Fire(SnapshotStale, 5, tx, 0) {
			t.Fatalf("rate-1.0 point skipped tx %d", tx)
		}
	}
	if always.Fired(SnapshotStale) != 1000 {
		t.Fatalf("fired counter = %d, want 1000", always.Fired(SnapshotStale))
	}

	half := New(Config{Seed: 2, Rates: map[Point]float64{ExecDelay: 0.5}})
	n := 0
	const trials = 4000
	for tx := 0; tx < trials; tx++ {
		if half.Fire(ExecDelay, 0, tx, 0) {
			n++
		}
	}
	if f := float64(n) / trials; math.Abs(f-0.5) > 0.05 {
		t.Fatalf("rate-0.5 point fired %.3f of the time", f)
	}
}

// TestLimits caps total fires per point.
func TestLimits(t *testing.T) {
	in := New(Config{
		Seed:   3,
		Rates:  map[Point]float64{ExecDelay: 1.0},
		Limits: map[Point]int{ExecDelay: 2},
		Delay:  time.Millisecond,
	})
	fires := 0
	for tx := 0; tx < 10; tx++ {
		if in.DelayFor(ExecDelay, 0, tx, 0) == time.Millisecond {
			fires++
		}
	}
	if fires != 2 || in.Fired(ExecDelay) != 2 {
		t.Fatalf("limited point fired %d times (counter %d), want 2", fires, in.Fired(ExecDelay))
	}
	if in.Counts()["exec_delay"] != 2 {
		t.Fatalf("counts = %v", in.Counts())
	}
}

func testCSAG(idx int, items int) *sag.CSAG {
	c := sag.NewCSAG(idx)
	for i := 0; i < items; i++ {
		addr := types.Address{byte(i)}
		c.Reads[sag.BalanceItem(addr)] = struct{}{}
		c.Writes[sag.BalanceItem(addr)] = 1
		v := u256.NewUint64(uint64(i))
		c.Deltas[sag.StorageItem(addr, types.Hash(v.Bytes32()))] = 1
	}
	return c
}

// TestCorruptCSAGsDeterministicAndNonMutating: corruption drops a strict,
// reproducible subset and never touches the caller's graphs.
func TestCorruptCSAGsDeterministicAndNonMutating(t *testing.T) {
	mk := func() []*sag.CSAG {
		return []*sag.CSAG{testCSAG(0, 16), nil, testCSAG(2, 16)}
	}
	cfg := Config{Seed: 9, Rates: map[Point]float64{
		CSAGDropRead:  1.0,
		CSAGDropWrite: 1.0,
		CSAGDropDelta: 1.0,
	}}
	orig := mk()
	orig[0].Outcome = &sag.Outcome{}
	out := CorruptCSAGs(New(cfg), 3, orig)
	if &out[0] == &orig[0] {
		t.Fatal("corruption returned the input slice")
	}
	// An altered graph is no longer what the pre-run produced: it must not
	// carry the pre-run's outcome into the executor (the caller's keeps it).
	if out[0].Outcome != nil || orig[0].Outcome == nil {
		t.Fatal("corrupted copy kept the pre-run outcome, or the input lost it")
	}
	if out[1] != nil {
		t.Fatal("nil C-SAG materialized")
	}
	if len(orig[0].Reads) != 16 || len(orig[0].Writes) != 16 || len(orig[0].Deltas) != 16 {
		t.Fatal("input C-SAG mutated")
	}
	for _, c := range []*sag.CSAG{out[0], out[2]} {
		if len(c.Reads) == 16 && len(c.Writes) == 16 && len(c.Deltas) == 16 {
			t.Fatal("armed C-SAG lost no entries")
		}
		if len(c.Reads) == 0 && len(c.Writes) == 0 && len(c.Deltas) == 0 {
			t.Fatal("corruption dropped everything; ~half expected")
		}
	}
	for id := range out[0].Reads {
		if _, ok := orig[0].Reads[id]; !ok {
			t.Fatal("corruption invented a read entry")
		}
	}
	// Same seed, fresh injector, fresh input: identical surviving sets.
	again := CorruptCSAGs(New(cfg), 3, mk())
	if len(again[0].Reads) != len(out[0].Reads) {
		t.Fatalf("reads survived %d vs %d across identical runs", len(again[0].Reads), len(out[0].Reads))
	}
	for id := range out[0].Reads {
		if _, ok := again[0].Reads[id]; !ok {
			t.Fatal("surviving read set differs across identical runs")
		}
	}
	for id, n := range out[2].Writes {
		if again[2].Writes[id] != n {
			t.Fatal("surviving write set differs across identical runs")
		}
	}
}

// TestCorruptCSAGsUnarmedShares: a transaction with no armed drop point
// keeps its original graph pointer (no needless copying).
func TestCorruptCSAGsUnarmedShares(t *testing.T) {
	in := New(Config{Seed: 4, Rates: map[Point]float64{CSAGDropRead: 0.5}})
	csags := make([]*sag.CSAG, 64)
	for i := range csags {
		csags[i] = testCSAG(i, 4)
	}
	out := CorruptCSAGs(in, 11, csags)
	shared, copiedN := 0, 0
	for i := range csags {
		if out[i] == csags[i] {
			shared++
		} else {
			copiedN++
			if len(out[i].Writes) != 4 || len(out[i].Deltas) != 4 {
				t.Fatal("unarmed field was rebuilt")
			}
		}
	}
	if shared == 0 || copiedN == 0 {
		t.Fatalf("degenerate arming: %d shared, %d copied", shared, copiedN)
	}
}

func TestPointStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range Points() {
		s := p.String()
		if s == "" || seen[s] {
			t.Fatalf("point %d has empty/duplicate name %q", p, s)
		}
		seen[s] = true
	}
	if NumPoints.String() == WorkerPanic.String() {
		t.Fatal("out-of-range point collides")
	}
}
