package dmvcc_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus component micro-benchmarks. The figure
// benchmarks execute real blocks and report the virtual-time speedup at 32
// threads as a custom metric ("speedup32"), following the paper's simulated
// thread-scaling methodology; wall-clock ns/op reflects this machine.
//
// Run with: go test -bench=. -benchmem

import (
	"fmt"
	"runtime"
	"testing"

	"dmvcc/internal/bench"
	"dmvcc/internal/chain"
	"dmvcc/internal/chainsim"
	"dmvcc/internal/core"
	"dmvcc/internal/sag"
	"dmvcc/internal/schedsim"
	"dmvcc/internal/workload"
)

// benchWorkload keeps figure benchmarks laptop-sized.
func benchWorkload(hot bool) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Users = 2000
	cfg.ERC20s = 60
	cfg.AMMs = 80
	cfg.NFTs = 20
	cfg.ICOs = 6
	cfg.TxPerBlock = 500
	if hot {
		cfg = cfg.HighContention()
	}
	return cfg
}

// benchFig7 runs one (scheme, contention) cell of Fig. 7.
func benchFig7(b *testing.B, mode chain.Mode, hot bool) {
	b.Helper()
	cfg := benchWorkload(hot)
	source, err := workload.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blockCtx := source.BlockContext()
	txs := source.NextBlock()

	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := workload.BuildWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		eng := chain.NewEngine(w.DB, w.Registry, 8)
		b.StartTimer()
		out, err := eng.Execute(mode, blockCtx, txs)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		serial, err := out.Makespan(chain.ModeSerial, 1)
		if err != nil {
			b.Fatal(err)
		}
		span, err := out.Makespan(mode, 32)
		if err != nil {
			b.Fatal(err)
		}
		speedup = float64(serial) / float64(span)
		b.StartTimer()
	}
	b.ReportMetric(speedup, "speedup32")
	b.ReportMetric(float64(len(txs)), "txs/block")
}

// Fig. 7(a): speedup on the mainnet-mix workload.
func BenchmarkFig7a_Serial(b *testing.B) { benchFig7(b, chain.ModeSerial, false) }
func BenchmarkFig7a_DAG(b *testing.B)    { benchFig7(b, chain.ModeDAG, false) }
func BenchmarkFig7a_OCC(b *testing.B)    { benchFig7(b, chain.ModeOCC, false) }
func BenchmarkFig7a_DMVCC(b *testing.B)  { benchFig7(b, chain.ModeDMVCC, false) }

// Fig. 7(b): speedup under high contention.
func BenchmarkFig7b_Serial(b *testing.B) { benchFig7(b, chain.ModeSerial, true) }
func BenchmarkFig7b_DAG(b *testing.B)    { benchFig7(b, chain.ModeDAG, true) }
func BenchmarkFig7b_OCC(b *testing.B)    { benchFig7(b, chain.ModeOCC, true) }
func BenchmarkFig7b_DMVCC(b *testing.B)  { benchFig7(b, chain.ModeDMVCC, true) }

// benchFig8 runs one Fig. 8 cell: the validator-network simulation.
func benchFig8(b *testing.B, mode chain.Mode, hot bool) {
	b.Helper()
	cfg := chainsim.DefaultConfig()
	cfg.Workload = benchWorkload(hot)
	cfg.Blocks = 2
	var speedup float64
	for i := 0; i < b.N; i++ {
		serialSess, err := chainsim.NewSession(cfg, chain.ModeSerial)
		if err != nil {
			b.Fatal(err)
		}
		serial, err := serialSess.Simulate(1)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := chainsim.NewSession(cfg, mode)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sess.Simulate(32)
		if err != nil {
			b.Fatal(err)
		}
		speedup = res.Throughput / serial.Throughput
	}
	b.ReportMetric(speedup, "tputSpeedup32")
}

// Fig. 8(a)/(b): network throughput speedups.
func BenchmarkFig8a_DMVCC(b *testing.B) { benchFig8(b, chain.ModeDMVCC, false) }
func BenchmarkFig8a_OCC(b *testing.B)   { benchFig8(b, chain.ModeOCC, false) }
func BenchmarkFig8a_DAG(b *testing.B)   { benchFig8(b, chain.ModeDAG, false) }
func BenchmarkFig8b_DMVCC(b *testing.B) { benchFig8(b, chain.ModeDMVCC, true) }
func BenchmarkFig8b_OCC(b *testing.B)   { benchFig8(b, chain.ModeOCC, true) }
func BenchmarkFig8b_DAG(b *testing.B)   { benchFig8(b, chain.ModeDAG, true) }

// RQ1: serial vs DMVCC root equivalence, one block per iteration.
func BenchmarkRQ1_RootEquivalence(b *testing.B) {
	cfg := benchWorkload(false)
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		res, err := bench.RunRQ1(bench.SpeedupConfig{Workload: cfg, Blocks: 1})
		if err != nil {
			b.Fatal(err)
		}
		if res.Matches != res.Blocks {
			b.Fatalf("root mismatch: %d/%d", res.Matches, res.Blocks)
		}
	}
}

// RQ2 abort statistics.
func BenchmarkAborts_HighContention(b *testing.B) {
	cfg := benchWorkload(true)
	var stats bench.AbortStats
	for i := 0; i < b.N; i++ {
		var err error
		stats, err = bench.MeasureAborts(bench.SpeedupConfig{Workload: cfg, Blocks: 1})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(stats.DMVCCRate(), "dmvccAbort%")
	b.ReportMetric(stats.ReductionVsOCC(), "reduction%")
}

// Ablation: DMVCC feature toggles (DESIGN.md's design-choice benches).
func benchAblation(b *testing.B, opts core.Options) {
	b.Helper()
	cfg := benchWorkload(true)
	source, err := workload.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blockCtx := source.BlockContext()
	txs := source.NextBlock()
	var speedup float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w, err := workload.BuildWorld(cfg)
		if err != nil {
			b.Fatal(err)
		}
		an := sag.NewAnalyzer(w.Registry)
		csags, err := an.AnalyzeBlock(txs, w.DB, blockCtx)
		if err != nil {
			b.Fatal(err)
		}
		ex := core.NewExecutorOpts(w.Registry, 8, opts)
		b.StartTimer()
		res, err := ex.ExecuteBlock(w.DB, blockCtx, txs, csags)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		var serial uint64
		for _, tr := range res.Traces {
			serial += tr.Gas
		}
		speedup = float64(serial) / float64(schedsim.DMVCC(res.Traces, 32, res.WastedGas))
		b.StartTimer()
	}
	b.ReportMetric(speedup, "speedup32")
}

func BenchmarkAblation_Full(b *testing.B) { benchAblation(b, core.Options{}) }
func BenchmarkAblation_NoEarlyWrite(b *testing.B) {
	benchAblation(b, core.Options{DisableEarlyWrite: true})
}
func BenchmarkAblation_NoCommutative(b *testing.B) {
	benchAblation(b, core.Options{DisableCommutative: true})
}
func BenchmarkAblation_NoWriteVersioning(b *testing.B) {
	benchAblation(b, core.Options{DisableWriteVersioning: true})
}
func BenchmarkAblation_None(b *testing.B) {
	benchAblation(b, core.Options{
		DisableEarlyWrite:      true,
		DisableCommutative:     true,
		DisableWriteVersioning: true,
	})
}

// Component micro-benchmarks: block analysis and thread-count sweeps of the
// scheduling simulator.
func BenchmarkAnalyzeBlock(b *testing.B) {
	cfg := benchWorkload(false)
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	blockCtx := w.BlockContext()
	txs := w.NextBlock()
	// ns/tx is wall-clock time per transaction of the block, so it falls
	// with the thread count on idle cores; allocs/tx does not.
	for _, th := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			an := sag.NewAnalyzer(w.Registry)
			an.SetThreads(th)
			benchPerTx(b, len(txs), func() {
				if _, err := an.AnalyzeBlock(txs, w.DB, blockCtx); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// benchPerTx runs block b.N times and reports the wall-clock ns and the
// allocations per transaction of a block of txs transactions.
func benchPerTx(b *testing.B, txs int, block func()) {
	b.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		block()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * txs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/tx")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/tx")
}

// BenchmarkExecuteBlock executes one mainnet-mix block from pre-computed
// C-SAGs: as analysed, so an incarnation whose reads still hold commits the
// pre-run's outcome ("replay"), and with the outcomes stripped, so every
// incarnation runs the interpreter ("evm"). Wall-clock ns/tx and allocs/tx.
func BenchmarkExecuteBlock(b *testing.B) {
	w, err := workload.BuildWorld(benchWorkload(false))
	if err != nil {
		b.Fatal(err)
	}
	blockCtx := w.BlockContext()
	txs := w.NextBlock()
	analysed, err := sag.NewAnalyzer(w.Registry).AnalyzeBlock(txs, w.DB, blockCtx)
	if err != nil {
		b.Fatal(err)
	}
	stripped := make([]*sag.CSAG, len(analysed))
	for i, c := range analysed {
		stripped[i] = c.WithoutOutcome()
	}
	for _, bc := range []struct {
		name  string
		csags []*sag.CSAG
	}{{"replay", analysed}, {"evm", stripped}} {
		b.Run(bc.name, func(b *testing.B) {
			ex := core.NewExecutor(w.Registry, runtime.GOMAXPROCS(0))
			var replays, execs int64
			benchPerTx(b, len(txs), func() {
				res, err := ex.ExecuteBlock(w.DB, blockCtx, txs, bc.csags)
				if err != nil {
					b.Fatal(err)
				}
				replays += res.Stats.Replays
				execs += res.Stats.Executions
			})
			b.ReportMetric(float64(replays)/float64(execs), "replays/exec")
		})
	}
}

func BenchmarkSchedSimDMVCC(b *testing.B) {
	cfg := benchWorkload(false)
	w, err := workload.BuildWorld(cfg)
	if err != nil {
		b.Fatal(err)
	}
	eng := chain.NewEngine(w.DB, w.Registry, 8)
	out, err := eng.Execute(chain.ModeDMVCC, w.BlockContext(), w.NextBlock())
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				schedsim.DMVCC(out.Traces, th, out.WastedGas)
			}
		})
	}
}
