package core_test

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"dmvcc/internal/baseline"
	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/fault"
	"dmvcc/internal/sag"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// chaosTxs is a contended mix: dependent token transfers, commutative ICO
// buys, an NFT mint chain and re-keyed indirect writes — every scheduler
// mechanism (early publish, deltas, parking, cascades) is in play while
// faults fire.
func chaosTxs(n int) []*types.Transaction {
	r := rand.New(rand.NewSource(int64(n)))
	var txs []*types.Transaction
	for i := 0; i < n; i++ {
		from := user(r.Intn(64))
		switch i % 5 {
		case 0:
			txs = append(txs, call(from, tokenAddr, 0, "transfer",
				user(r.Intn(64)).Word(), u256.NewUint64(uint64(r.Intn(12_000)))))
		case 1:
			txs = append(txs, call(from, icoAddr, uint64(1+r.Intn(500)), "buy"))
		case 2:
			txs = append(txs, call(from, nftAddr, 0, "mintNFT"))
		case 3:
			txs = append(txs, call(from, indirAddr, 0, "setKey",
				u256.NewUint64(uint64(r.Intn(4))), u256.NewUint64(uint64(r.Intn(8)))))
		default:
			txs = append(txs, call(from, indirAddr, 0, "writeAt",
				u256.NewUint64(uint64(r.Intn(4))), u256.NewUint64(uint64(r.Intn(1000)))))
		}
	}
	return txs
}

// chaosRun executes txs through a fault-injected executor and asserts the
// committed root is byte-identical to the serial baseline (Theorem 1 must
// survive every injected fault). Returns the DMVCC stats.
func chaosRun(t *testing.T, txs []*types.Transaction, threads int, cfg fault.Config, hard core.Hardening) core.Stats {
	t.Helper()
	dbSerial, _ := fixture(t)
	serial, err := baseline.ExecuteSerial(dbSerial, blk, txs)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	rootSerial, err := dbSerial.Commit(serial.WriteSet)
	if err != nil {
		t.Fatal(err)
	}

	db, reg := fixture(t)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutor(reg, threads)
	ex.SetFaults(fault.New(cfg))
	ex.SetHardening(hard)
	res, err := ex.ExecuteBlock(db, blk, txs, csags)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	root, err := db.Commit(res.WriteSet)
	if err != nil {
		t.Fatal(err)
	}
	if root != rootSerial {
		t.Fatalf("chaos run diverged from serial: %s != %s (stats %+v)", root, rootSerial, res.Stats)
	}
	for i := range txs {
		if serial.Receipts[i].Status != res.Receipts[i].Status {
			t.Errorf("tx %d status: serial %s, chaos %s", i, serial.Receipts[i].Status, res.Receipts[i].Status)
		}
	}
	return res.Stats
}

// TestPanicContainment injects worker panics mid-transaction at a high rate:
// every panic must be contained (worker survives, incarnation aborts and
// relaunches) and the block must still commit the serial root.
func TestPanicContainment(t *testing.T) {
	stats := chaosRun(t, chaosTxs(40), 8,
		fault.Config{Seed: 7, Rates: map[fault.Point]float64{fault.WorkerPanic: 0.6}},
		core.Hardening{})
	if stats.Panics == 0 {
		t.Error("no panics fired at rate 0.6; injection points not reached")
	}
	if stats.Degraded {
		t.Errorf("contained panics must not degrade the block: %s", stats.DegradeReason)
	}
}

// TestDelayAndSuppressedPublishFaults slows incarnations down and suppresses
// early-write visibility: pure timing faults that must never change the
// committed state.
func TestDelayAndSuppressedPublishFaults(t *testing.T) {
	stats := chaosRun(t, chaosTxs(32), 8,
		fault.Config{
			Seed:  11,
			Delay: 100 * time.Microsecond,
			Rates: map[fault.Point]float64{
				fault.ExecDelay:         0.5,
				fault.DelayEarlyPublish: 1.0,
			},
		},
		core.Hardening{})
	if stats.Degraded {
		t.Errorf("timing faults degraded the block: %s", stats.DegradeReason)
	}
}

// TestCSAGCorruptionFaults corrupts predicted read/write/delta sets through
// the executor's own injection hook: mispredictions force the dynamic
// (unpredicted-write) machinery and the root must still match serial.
func TestCSAGCorruptionFaults(t *testing.T) {
	for _, threads := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			chaosRun(t, chaosTxs(36), threads,
				fault.Config{Seed: 13, Rates: map[fault.Point]float64{
					fault.CSAGDropRead:  0.4,
					fault.CSAGDropWrite: 0.4,
					fault.CSAGDropDelta: 0.4,
				}},
				core.Hardening{})
		})
	}
}

// TestSnapshotStaleFaults force-aborts a fraction of incarnations as if
// their snapshot reads were stale (spurious aborts are always safe).
func TestSnapshotStaleFaults(t *testing.T) {
	stats := chaosRun(t, chaosTxs(32), 8,
		fault.Config{Seed: 17, Rates: map[fault.Point]float64{fault.SnapshotStale: 0.3}},
		core.Hardening{})
	if stats.Aborts == 0 {
		t.Error("no aborts at stale rate 0.3")
	}
}

// TestMixedFaultStorm fires every executor-level fault class at once.
func TestMixedFaultStorm(t *testing.T) {
	chaosRun(t, chaosTxs(48), 8,
		fault.Config{
			Seed:  23,
			Delay: 50 * time.Microsecond,
			Rates: map[fault.Point]float64{
				fault.WorkerPanic:       0.2,
				fault.ExecDelay:         0.3,
				fault.CSAGDropRead:      0.25,
				fault.CSAGDropWrite:     0.25,
				fault.CSAGDropDelta:     0.25,
				fault.SnapshotStale:     0.2,
				fault.DelayEarlyPublish: 0.5,
			},
		},
		core.Hardening{})
}

// TestBreakerDegradesToSerial drives an unbounded abort storm (every
// incarnation rolls a stale read) into a tight incarnation cap: the breaker
// must trip, degrade the block to the serial baseline mid-flight, commit the
// byte-identical serial root, and surface the reason in Stats.
func TestBreakerDegradesToSerial(t *testing.T) {
	stats := chaosRun(t, chaosTxs(16), 4,
		fault.Config{Seed: 29, Rates: map[fault.Point]float64{fault.SnapshotStale: 1.0}},
		core.Hardening{MaxTxIncarnations: 4})
	if !stats.Degraded {
		t.Fatalf("abort storm did not trip the breaker: %+v", stats)
	}
	if !strings.Contains(stats.DegradeReason, "incarnation cap") {
		t.Errorf("degrade reason = %q, want the incarnation cap", stats.DegradeReason)
	}
	if stats.MaxIncarnation < 4 {
		t.Errorf("MaxIncarnation = %d, want >= cap 4", stats.MaxIncarnation)
	}
}

// TestBreakerWastedGasBudget trips the breaker on the cascade wasted-gas
// budget instead of the per-tx cap.
func TestBreakerWastedGasBudget(t *testing.T) {
	stats := chaosRun(t, chaosTxs(16), 4,
		fault.Config{Seed: 31, Rates: map[fault.Point]float64{fault.SnapshotStale: 1.0}},
		core.Hardening{WastedGasBudget: 50 * core.BaseCost})
	if !stats.Degraded {
		t.Fatalf("wasted-gas storm did not trip the breaker: %+v", stats)
	}
	if !strings.Contains(stats.DegradeReason, "wasted-gas") {
		t.Errorf("degrade reason = %q, want a wasted-gas budget trip", stats.DegradeReason)
	}
}

// TestBreakerDisableFallback pins the strict mode: with fallback disabled a
// trip surfaces as ErrCircuitBreaker instead of a degraded result.
func TestBreakerDisableFallback(t *testing.T) {
	db, reg := fixture(t)
	txs := chaosTxs(12)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutor(reg, 4)
	ex.SetFaults(fault.New(fault.Config{Seed: 37, Rates: map[fault.Point]float64{fault.SnapshotStale: 1.0}}))
	ex.SetHardening(core.Hardening{MaxTxIncarnations: 4, DisableFallback: true})
	_, err = ex.ExecuteBlock(db, blk, txs, csags)
	if !errors.Is(err, core.ErrCircuitBreaker) {
		t.Fatalf("err = %v, want ErrCircuitBreaker", err)
	}
}

// TestWatchdogRecoversFromStall wedges the first incarnations in a long
// injected sleep (longer than the watchdog deadline) with the fire limit set
// so relaunched incarnations run clean: the watchdog must detect the frozen
// progress counter, force-abort the sleepers, and let the block finish
// healthy — correct root, no degradation, recovery visible in Stats.
func TestWatchdogRecoversFromStall(t *testing.T) {
	stats := chaosRun(t, chaosTxs(8), 2,
		fault.Config{
			Seed:   41,
			Delay:  30 * time.Second,
			Rates:  map[fault.Point]float64{fault.ExecDelay: 1.0},
			Limits: map[fault.Point]int{fault.ExecDelay: 2},
		},
		core.Hardening{StallTimeout: 100 * time.Millisecond, StallRecoveries: 5})
	if stats.StallRecoveries == 0 {
		t.Fatal("watchdog never fired on a wedged block")
	}
	if stats.Degraded {
		t.Errorf("recoverable stall degraded the block: %s", stats.DegradeReason)
	}
}

// TestWatchdogTripsAfterRecoveries wedges every incarnation forever (no fire
// limit): after the configured recovery rounds fail to restore progress, the
// watchdog trips the breaker and the block degrades to serial.
func TestWatchdogTripsAfterRecoveries(t *testing.T) {
	events := eventlog.New()
	events.Enable()

	dbSerial, _ := fixture(t)
	txs := chaosTxs(6)
	serial, err := baseline.ExecuteSerial(dbSerial, blk, txs)
	if err != nil {
		t.Fatal(err)
	}
	rootSerial, err := dbSerial.Commit(serial.WriteSet)
	if err != nil {
		t.Fatal(err)
	}

	db, reg := fixture(t)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutor(reg, 2)
	ex.SetFaults(fault.New(fault.Config{
		Seed:  43,
		Delay: 30 * time.Second,
		Rates: map[fault.Point]float64{fault.ExecDelay: 1.0},
	}))
	ex.SetLog(events)
	ex.SetHardening(core.Hardening{StallTimeout: 50 * time.Millisecond, StallRecoveries: 1})
	res, err := ex.ExecuteBlock(db, blk, txs, csags)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded || !strings.Contains(res.Stats.DegradeReason, "stall") {
		t.Fatalf("stats = %+v, want a stall degradation", res.Stats)
	}
	if res.Stats.StallRecoveries < 2 {
		t.Errorf("stall recoveries = %d, want >= 2 (rounds before the trip)", res.Stats.StallRecoveries)
	}
	root, err := db.Commit(res.WriteSet)
	if err != nil {
		t.Fatal(err)
	}
	if root != rootSerial {
		t.Fatalf("degraded block diverged: %s != %s", root, rootSerial)
	}

	// The watchdog dumped diagnostics: parked-waiter/pool snapshots under
	// /telemetry and the degradation reason in the post-mortem.
	record := events.Block(int64(blk.Number))
	stalls := telemetry.Stalls(record)
	if len(stalls) < 2 {
		t.Fatalf("stall reports = %d, want >= 2", len(stalls))
	}
	for i, rep := range stalls {
		if rep.Attempt != i+1 || rep.Schema != telemetry.StallSchema {
			t.Errorf("stall report %d: attempt=%d schema=%q", i, rep.Attempt, rep.Schema)
		}
		if len(rep.Pending) == 0 {
			t.Errorf("stall report %d lists no pending txs", i)
		}
	}
	pm := telemetry.BlockPostMortem(record)
	if pm == nil || pm.Degraded == "" || pm.Stalls != len(stalls) {
		t.Fatalf("post-mortem = %+v, want degraded reason and %d stalls", pm, len(stalls))
	}
	if !strings.Contains(pm.Render(), "DEGRADED") {
		t.Error("post-mortem render does not surface the degradation")
	}
}

// TestChaosDegradedForensics pins that a breaker trip lands in the event
// log's degradation mark (the /metrics + post-mortem surfacing path).
func TestChaosDegradedForensics(t *testing.T) {
	events := eventlog.New()
	events.Enable()
	db, reg := fixture(t)
	txs := chaosTxs(12)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	ex := core.NewExecutor(reg, 4)
	ex.SetFaults(fault.New(fault.Config{Seed: 47, Rates: map[fault.Point]float64{fault.SnapshotStale: 1.0}}))
	ex.SetLog(events)
	ex.SetHardening(core.Hardening{MaxTxIncarnations: 3})
	res, err := ex.ExecuteBlock(db, blk, txs, csags)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded {
		t.Fatalf("expected degradation, got %+v", res.Stats)
	}
	if got := events.Block(int64(blk.Number)).Degraded; got != res.Stats.DegradeReason {
		t.Errorf("event log degraded mark %q != stats reason %q", got, res.Stats.DegradeReason)
	}

	reg2 := telemetry.NewRegistry()
	res.Stats.RecordMetrics(reg2)
	if got := reg2.Counter("core.degraded_blocks").Value(); got != 1 {
		t.Errorf("core.degraded_blocks = %d, want 1", got)
	}
	if got := reg2.Counter("core.panics").Value(); got != res.Stats.Panics {
		t.Errorf("core.panics = %d, want %d", got, res.Stats.Panics)
	}
}

// TestNoGoroutineLeakOnBlockError pins the drain path: a block that fails
// mid-flight (here: an unbounded abort storm with the breaker cap disabled,
// driving one tx into the hard livelock bound) must not strand parked
// readers or pool workers — every goroutine the execution spawned exits.
func TestNoGoroutineLeakOnBlockError(t *testing.T) {
	db, reg := fixture(t)
	txs := chaosTxs(8)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	ex := core.NewExecutor(reg, 4)
	ex.SetFaults(fault.New(fault.Config{Seed: 53, Rates: map[fault.Point]float64{fault.SnapshotStale: 1.0}}))
	// Disable both the breaker cap and the watchdog: the storm must run all
	// the way into ErrTooManyAborts, the fatal-error path.
	ex.SetHardening(core.Hardening{MaxTxIncarnations: -1, StallTimeout: -1})
	if _, err := ex.ExecuteBlock(db, blk, txs, csags); !errors.Is(err, core.ErrTooManyAborts) {
		t.Fatalf("err = %v, want ErrTooManyAborts", err)
	}

	// Workers and any parked waiters must wind down; allow the runtime a
	// moment to reap exited goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosDeterministicFaultPlan pins reproducibility: the same seed arms
// the same incarnations, so two runs fire an identical per-point fault plan
// for the deterministic (schedule-independent) points.
func TestChaosDeterministicFaultPlan(t *testing.T) {
	plan := func() map[string]int64 {
		in := fault.New(fault.Config{Seed: 59, Rates: map[fault.Point]float64{
			fault.CSAGDropRead:  0.5,
			fault.CSAGDropWrite: 0.5,
			fault.CSAGDropDelta: 0.5,
		}})
		db, reg := fixture(t)
		txs := chaosTxs(24)
		an := sag.NewAnalyzer(reg)
		csags, err := an.AnalyzeBlock(txs, db, blk)
		if err != nil {
			t.Fatal(err)
		}
		ex := core.NewExecutor(reg, 4)
		ex.SetFaults(in)
		if _, err := ex.ExecuteBlock(db, blk, txs, csags); err != nil {
			t.Fatal(err)
		}
		return in.Counts()
	}
	a, b := plan(), plan()
	for p, n := range a {
		if b[p] != n {
			t.Errorf("point %s fired %d then %d times under the same seed", p, n, b[p])
		}
	}
}

// benchExecuteFaults mirrors benchExecuteEvents for the fault layer.
func benchExecuteFaults(b *testing.B, in *fault.Injector) {
	b.Helper()
	txs := benchTxs()
	db, reg := fixture(b)
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		b.Fatal(err)
	}
	ex := core.NewExecutor(reg, 8)
	ex.SetFaults(in)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.ExecuteBlock(db, blk, txs, csags); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultNone is the production baseline: no injector attached.
func BenchmarkFaultNone(b *testing.B) {
	benchExecuteFaults(b, nil)
}

// BenchmarkFaultDisabled attaches a zero-rate injector: every injection
// point pays the nil/active check and nothing else. The contract is that
// this stays within noise of BenchmarkFaultNone (the disabled fault layer
// must not move the PR 4 hot-path numbers).
func BenchmarkFaultDisabled(b *testing.B) {
	benchExecuteFaults(b, fault.New(fault.Config{Seed: 1}))
}
