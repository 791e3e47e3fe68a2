// dmvcc-bench regenerates the paper's evaluation: every figure and table of
// §V. Each experiment prints the measured series next to a provenance note.
//
//	dmvcc-bench -exp fig7a            # speedup vs threads, mainnet-mix traffic
//	dmvcc-bench -exp fig7b            # speedup vs threads, high contention
//	dmvcc-bench -exp fig8a            # throughput speedup, validator network
//	dmvcc-bench -exp fig8b            # same, high contention
//	dmvcc-bench -exp rq1              # Merkle-root equivalence sweep
//	dmvcc-bench -exp aborts           # abort statistics (RQ2 text)
//	dmvcc-bench -exp ablation         # early-write / commutativity ablation
//	dmvcc-bench -exp pipeline         # block-pipeline analysis/exec overlap
//	dmvcc-bench -exp hotpath          # scheduler hot-path wall-clock baseline
//	dmvcc-bench -exp conflicts        # conflict forensics + C-SAG accuracy audit
//	dmvcc-bench -exp chaos            # fault-injection soak, serial-root oracle
//	dmvcc-bench -exp statescale       # flat vs trie state backends across state sizes
//	dmvcc-bench -exp divergence       # flight-recorded divergence hunt + replay
//	dmvcc-bench -exp crashtorture     # kill-point crash/recover soak, twin-root oracle
//	dmvcc-bench -exp all              # everything
//
// -blocks and -txs scale the workload; the defaults run in a few minutes on
// a laptop. The hotpath experiment writes a machine-readable report
// (-benchjson, default BENCH_hotpath.json) and can fold a previous run in
// as the before-series (-baseline). -cpuprofile/-memprofile capture pprof
// profiles of whichever experiment runs. -trace out.json arms the scheduler
// event log and the stage ledger and writes a Chrome/Perfetto timeline of the
// instrumented run (hotpath and pipeline experiments) plus the per-block
// critical path; -obs :6060 serves the live introspection endpoint — every
// per-block view read from that same log — while the experiments run. The conflicts
// experiment writes BENCH_conflicts.json (-conflictsjson) with per-block
// post-mortems; -strict re-reads the written report and fails on any
// unexplained abort or a mispredicted transaction in the deterministic
// workload. The chaos experiment soaks every fault class (-chaosblocks
// seeded blocks total) under the serial-root oracle and writes
// BENCH_chaos.json (-chaosjson). The statescale experiment sweeps account
// counts (-scaleaccounts) across the flat, disk-backed, and reference trie
// backends and writes BENCH_statescale.json (-scalejson). The divergence
// experiment soaks -divblocks fault-injected blocks with the scheduler event
// log armed (-record is implied; keep it for clarity): the first block whose
// committed state diverges from the serial twin is captured as an ordered
// schedule, audited down to the first divergent transaction, and greedily
// shrunk to a minimal repro; -replay <capture.json> deterministically forces
// a previously written capture back instead. Artifacts land next to
// -divjson. On a clean soak the last recorded block is round-tripped through
// the forced replayer as a self-check. The crashtorture experiment runs
// -crashcycles seeded crash/recover rounds over a disk-backed world, rotating
// through the three kill points (fsync-starved commit, durable commit, torn
// tail), and requires every reopen + Engine.Recover to land byte-identical to
// an always-alive in-memory twin; the report goes to -crashjson. -backend
// selects the state backend the workload experiments run on (trie|flat|disk) and
// -shards the flat account-trie fan-out (1 or 16) — roots are identical
// across all of them by construction.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dmvcc/internal/bench"
	"dmvcc/internal/chainsim"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/workload"
)

// backendFactory resolves the -backend/-shards flags to a workload state
// factory (nil = the reference trie DB) plus a cleanup hook for disk stores.
func backendFactory(name string, shards int) (func() (state.Backend, error), func(), error) {
	switch name {
	case "", "trie":
		return nil, func() {}, nil
	case "flat":
		return func() (state.Backend, error) {
			return state.NewFlat(state.FlatOpts{Shards: shards})
		}, func() {}, nil
	case "disk":
		root, err := os.MkdirTemp("", "dmvcc-bench-disk-*")
		if err != nil {
			return nil, nil, err
		}
		// Fresh subdirectory per world: experiments build several worlds from
		// one factory, and a log-structured store directory is single-owner.
		return func() (state.Backend, error) {
				dir, err := os.MkdirTemp(root, "world-*")
				if err != nil {
					return nil, err
				}
				return state.NewFlat(state.FlatOpts{Shards: shards, Dir: dir})
			}, func() {
				os.RemoveAll(root)
			}, nil
	default:
		return nil, nil, fmt.Errorf("unknown backend %q (want trie, flat, or disk)", name)
	}
}

// parseAccountTiers parses the comma-separated -scaleaccounts list.
func parseAccountTiers(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad account tier %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	exp := flag.String("exp", "all", "experiment: fig7a|fig7b|fig8a|fig8b|rq1|aborts|ablation|pipeline|hotpath|conflicts|chaos|statescale|crashtorture|all")
	blocks := flag.Int("blocks", 3, "blocks per experiment")
	txs := flag.Int("txs", 1000, "transactions per block (fig7/rq1/aborts/ablation)")
	simTxs := flag.Int("simtxs", 10000, "transactions per block for the fig8 network simulation (the paper's RQ3 size)")
	simBlocks := flag.Int("simblocks", 2, "blocks for the fig8 network simulation")
	rq1Blocks := flag.Int("rq1blocks", 10, "blocks for the rq1 sweep")
	seed := flag.Int64("seed", 1, "workload seed")
	hotTxs := flag.Int("hottxs", 1024, "base transactions per block for the hotpath experiment")
	hotSizes := flag.String("hotsizes", "", "comma-separated mainnet-mix block sizes for the hotpath scaling ladder (default hottxs,4x,10x)")
	hotRounds := flag.Int("hotrounds", 2, "timed re-executions per hotpath configuration")
	benchJSON := flag.String("benchjson", "BENCH_hotpath.json", "output path for the hotpath report")
	baselinePath := flag.String("baseline", "", "previous hotpath report whose numbers become the before-series")
	hotCheck := flag.Bool("hotcheck", false, "hotpath: fail if wall-clock speedup or allocs/tx regress beyond tolerance vs the -baseline report")
	hotSpeedupTol := flag.Float64("hotspeeduptol", 0.25, "hotcheck: allowed fractional drop in DMVCC-over-serial wall-clock speedup (machine-speed-independent ratio)")
	hotAllocsTol := flag.Float64("hotallocstol", 0.10, "hotcheck: allowed fractional rise in allocs/tx")
	conflictsJSON := flag.String("conflictsjson", "BENCH_conflicts.json", "output path for the conflicts report")
	conflictsTxs := flag.Int("conflicttxs", 512, "transactions per block for the conflicts experiment")
	conflictsPerTx := flag.Bool("pertx", false, "keep per-transaction audit rows in the conflicts report")
	strict := flag.Bool("strict", false, "conflicts: re-read the written report and fail on unexplained aborts or deterministic-workload mispredictions")
	chaosBlocks := flag.Int("chaosblocks", 200, "total seeded blocks for the chaos soak, spread across the fault classes")
	chaosTxs := flag.Int("chaostxs", 96, "transactions per block for the chaos soak")
	chaosThreads := flag.Int("chaosthreads", 8, "scheduler threads for the chaos soak")
	chaosJSON := flag.String("chaosjson", "BENCH_chaos.json", "output path for the chaos report")
	crashCycles := flag.Int("crashcycles", 21, "crash/recover rounds for the crashtorture soak (>= 3 covers every kill point)")
	crashBlocks := flag.Int("crashblocks", 3, "blocks committed per crashtorture cycle before the kill")
	crashTxs := flag.Int("crashtxs", 48, "transactions per block for the crashtorture soak")
	crashThreads := flag.Int("crashthreads", 4, "scheduler threads for the crashtorture soak")
	crashJSON := flag.String("crashjson", "BENCH_crash.json", "output path for the crashtorture report")
	divBlocks := flag.Int("divblocks", 40, "fault-injected blocks for the divergence hunt, spread across the hunted classes")
	divTxs := flag.Int("divtxs", 64, "transactions per block for the divergence hunt")
	divThreads := flag.Int("divthreads", 8, "scheduler threads for the divergence hunt")
	record := flag.Bool("record", false, "divergence: arm the scheduler event log (implied by -exp divergence without -replay)")
	replayPath := flag.String("replay", "", "divergence: deterministically replay this capture file instead of hunting")
	divJSON := flag.String("divjson", "BENCH_divergence.json", "output path for the divergence run report (capture/repro artifacts land in its directory)")
	backendName := flag.String("backend", "trie", "state backend for the workload experiments: trie|flat|disk")
	shards := flag.Int("shards", 16, "flat-backend account-trie shard count (1 or 16)")
	scaleAccounts := flag.String("scaleaccounts", "", "comma-separated account tiers for the statescale experiment (default 10000,100000,1000000)")
	scaleBlocks := flag.Int("scaleblocks", 20, "churn blocks per statescale tier")
	scaleWrites := flag.Int("scalewrites", 256, "account writes per statescale churn block")
	scaleRefMax := flag.Int("scalerefmax", 100_000, "largest statescale tier cross-checked against the reference trie DB")
	scaleMinSpeedup := flag.Float64("scaleminspeedup", 5, "flat-vs-trie read speedup the largest statescale tier must reach")
	scaleJSON := flag.String("scalejson", "BENCH_statescale.json", "output path for the statescale report")
	pipeBlocks := flag.Int("pipeblocks", 48, "blocks for the pipeline soak's clean leg")
	pipeTxs := flag.Int("pipetxs", 256, "transactions per block for the pipeline soak")
	pipeThreads := flag.Int("pipethreads", 0, "worker threads for the pipeline soak (0 = derive from GOMAXPROCS)")
	pipeBackend := flag.String("pipebackend", "flat", "pipeline-soak state backend: flat|trie (flat commits asynchronously, so a healthy pipeline audits clean)")
	pipeJSON := flag.String("pipejson", "BENCH_pipeline.json", "output path for the pipeline soak report")
	pipeTimelineJSON := flag.String("pipetimeline", "BENCH_pipeline_timeline.json", "output path for the pipeline soak's timeline snapshot (dashboard-replayable)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace of a telemetry-instrumented run (hotpath and pipeline experiments) to this file")
	obsAddr := flag.String("obs", "", "serve the live introspection endpoint (pprof, expvar, /metrics, /telemetry) on this address, e.g. :6060")
	flag.Parse()

	// -trace and -obs arm the one scheduler event log plus a stage ledger
	// (the trace's pipeline tracks); everything they show is read from those.
	var events *eventlog.Log
	var ledger *telemetry.StageLedger
	var metrics *telemetry.Registry
	divStore := telemetry.NewDivergenceStore()
	var timeline *telemetry.Timeline
	if *obsAddr != "" {
		timeline = telemetry.NewTimeline(0)
		ledger = timeline.Ledger
	}
	if *tracePath != "" || *obsAddr != "" {
		events = eventlog.New()
		events.Enable()
		if ledger == nil {
			ledger = telemetry.NewStageLedger()
			ledger.Enable()
		}
		metrics = telemetry.NewRegistry()
	}
	if *obsAddr != "" {
		addr, stop, err := telemetry.Serve(*obsAddr, metrics, events, divStore, timeline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmvcc-bench:", err)
			os.Exit(1)
		}
		defer stop()
		fmt.Printf("observability endpoint on http://%s (pprof, /debug/vars, /metrics, /telemetry/timeline, /telemetry/dashboard)\n", addr)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dmvcc-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "dmvcc-bench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	tiers, err := parseAccountTiers(*scaleAccounts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmvcc-bench:", err)
		os.Exit(1)
	}
	backend, backendCleanup, err := backendFactory(*backendName, *shards)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmvcc-bench:", err)
		os.Exit(1)
	}
	defer backendCleanup()

	hotSizeList, err := parseAccountTiers(*hotSizes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dmvcc-bench: -hotsizes:", err)
		os.Exit(1)
	}

	err = run(*exp, *blocks, *txs, *simTxs, *simBlocks, *rq1Blocks, *seed, hotpathArgs{
		txs: *hotTxs, sizes: hotSizeList, rounds: *hotRounds, jsonPath: *benchJSON, baseline: *baselinePath,
		check: *hotCheck, speedupTol: *hotSpeedupTol, allocsTol: *hotAllocsTol,
	}, conflictsArgs{
		txs: *conflictsTxs, jsonPath: *conflictsJSON, perTx: *conflictsPerTx, strict: *strict,
	}, chaosArgs{
		blocks: *chaosBlocks, txs: *chaosTxs, threads: *chaosThreads, jsonPath: *chaosJSON,
	}, crashArgs{
		cycles: *crashCycles, blocks: *crashBlocks, txs: *crashTxs, threads: *crashThreads, jsonPath: *crashJSON,
	}, divergenceArgs{
		blocks: *divBlocks, txs: *divTxs, threads: *divThreads,
		record: *record, replayPath: *replayPath, jsonPath: *divJSON, store: divStore,
	}, scaleArgs{
		accounts: tiers, blocks: *scaleBlocks, writes: *scaleWrites,
		refMax: *scaleRefMax, minSpeedup: *scaleMinSpeedup, jsonPath: *scaleJSON,
	}, pipelineArgs{
		blocks: *pipeBlocks, txs: *pipeTxs, threads: *pipeThreads, backend: *pipeBackend,
		jsonPath: *pipeJSON, timelinePath: *pipeTimelineJSON, timeline: timeline,
	}, backend, events, ledger, metrics)

	if err == nil && *tracePath != "" {
		if werr := writeTrace(*tracePath, events, ledger); werr != nil {
			err = werr
		} else {
			fmt.Printf("wrote %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *tracePath)
		}
	}

	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, "dmvcc-bench:", ferr)
			os.Exit(1)
		}
		runtime.GC()
		if perr := pprof.WriteHeapProfile(f); perr != nil {
			fmt.Fprintln(os.Stderr, "dmvcc-bench:", perr)
			os.Exit(1)
		}
		f.Close()
	}

	if err != nil {
		fmt.Fprintln(os.Stderr, "dmvcc-bench:", err)
		os.Exit(1)
	}
}

// hotpathArgs bundles the hotpath experiment's flags.
type hotpathArgs struct {
	txs, rounds           int
	sizes                 []int
	jsonPath, baseline    string
	check                 bool
	speedupTol, allocsTol float64
}

// conflictsArgs bundles the conflicts experiment's flags.
type conflictsArgs struct {
	txs      int
	jsonPath string
	perTx    bool
	strict   bool
}

// chaosArgs bundles the chaos experiment's flags.
type chaosArgs struct {
	blocks, txs, threads int
	jsonPath             string
}

// crashArgs bundles the crashtorture experiment's flags.
type crashArgs struct {
	cycles, blocks, txs, threads int
	jsonPath                     string
}

// divergenceArgs bundles the divergence experiment's flags.
type divergenceArgs struct {
	blocks, txs, threads int
	record               bool
	replayPath           string
	jsonPath             string
	store                *telemetry.DivergenceStore
}

// scaleArgs bundles the statescale experiment's flags.
type scaleArgs struct {
	accounts       []int
	blocks, writes int
	refMax         int
	minSpeedup     float64
	jsonPath       string
}

// pipelineArgs bundles the pipeline-soak experiment's flags.
type pipelineArgs struct {
	blocks, txs, threads   int
	backend                string
	jsonPath, timelinePath string
	// timeline is the live -obs timeline, when serving: the soak runs on it
	// so /telemetry/dashboard shows the run as it happens.
	timeline *telemetry.Timeline
}

// checkConflictsReport re-reads a written conflicts report from disk and
// validates its invariants — the round-trip catches both forensic gaps and
// serialization regressions.
func checkConflictsReport(path string) error {
	if path == "" {
		return fmt.Errorf("-strict requires -conflictsjson")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep bench.ConflictsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	return rep.Validate()
}

// writeTrace exports the event log's retained blocks and the ledger's stage
// intervals as Chrome trace-event JSON.
func writeTrace(path string, events *eventlog.Log, ledger *telemetry.StageLedger) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := telemetry.ExportChrome(f, events, ledger); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func run(exp string, blocks, txs, simTxs, simBlocks, rq1Blocks int, seed int64, hot hotpathArgs, conf conflictsArgs, chaos chaosArgs, crash crashArgs, div divergenceArgs, scale scaleArgs, pipe pipelineArgs, backend func() (state.Backend, error), events *eventlog.Log, ledger *telemetry.StageLedger, metrics *telemetry.Registry) error {
	low := workload.DefaultConfig()
	low.TxPerBlock = txs
	low.Seed = seed
	low.Backend = backend
	high := low.HighContention()

	runOne := func(name string) error {
		start := time.Now()
		defer func() { fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond)) }()
		switch name {
		case "fig7a":
			fig, err := bench.SpeedupFigure("Fig. 7(a)",
				"speedup over serial execution, mainnet-mix workload", bench.SpeedupConfig{
					Workload: low, Blocks: blocks,
				})
			if err != nil {
				return err
			}
			fmt.Print(fig.Render())
			fmt.Println("paper: serial 1.00, dag 11.04, occ 13.86, dmvcc 21.35 at 32 threads")

		case "fig7b":
			fig, err := bench.SpeedupFigure("Fig. 7(b)",
				"speedup over serial execution, high-contention workload (1% hot, 50% prob)",
				bench.SpeedupConfig{Workload: high, Blocks: blocks})
			if err != nil {
				return err
			}
			fmt.Print(fig.Render())
			fmt.Println("paper: serial 1.00, dag 3.05, occ 3.48, dmvcc 13.73 at 32 threads")

		case "fig8a", "fig8b":
			cfg := chainsim.DefaultConfig()
			cfg.Blocks = simBlocks
			cfg.Workload = low
			title := "validator-network throughput speedup, mainnet mix"
			paper := "paper: ~19.79x for dmvcc at 32 threads; dag/occ similar (low contention)"
			if name == "fig8b" {
				cfg.Workload = high
				title = "validator-network throughput speedup, high contention"
				paper = "paper: dmvcc sustains ~10k txs per 12s cycle with 8 threads; dag/occ finish ~60% of dmvcc's txs"
			}
			cfg.Workload.TxPerBlock = simTxs
			fig, err := bench.Fig8("Fig. 8("+name[4:]+")", title, cfg, nil)
			if err != nil {
				return err
			}
			fmt.Print(fig.Render())
			fmt.Println(paper)

		case "rq1":
			res, err := bench.RunRQ1(bench.SpeedupConfig{Workload: low, Blocks: rq1Blocks})
			if err != nil {
				return err
			}
			fmt.Printf("== RQ1: deterministic serializability ==\n")
			fmt.Printf("blocks executed under serial and DMVCC on twin chains: %d (%d txs)\n",
				res.Blocks, res.Txs)
			fmt.Printf("Merkle-root matches: %d/%d\n", res.Matches, res.Blocks)
			fmt.Println("paper: 121,210 blocks / 22,557,724 txs, all roots matched")

		case "aborts":
			stats, err := bench.MeasureAborts(bench.SpeedupConfig{Workload: high, Blocks: blocks})
			if err != nil {
				return err
			}
			fmt.Printf("== RQ2 abort statistics (high contention) ==\n")
			fmt.Printf("transactions: %d\n", stats.Txs)
			fmt.Printf("dmvcc aborts: %d (%.2f%%)\n", stats.DMVCCAborts, stats.DMVCCRate())
			fmt.Printf("occ re-executions: %d\n", stats.OCCAborts)
			fmt.Printf("abort reduction vs occ: %.1f%%\n", stats.ReductionVsOCC())
			fmt.Println("paper: dmvcc abort rate < 2%, 63% fewer aborts than occ")

		case "ablation":
			// The ICO-launch mix (the paper's RQ3 narrative): commutative
			// counters dominate, so the feature toggles separate cleanly.
			ico := high
			ico.ERC20Frac, ico.DeFiFrac, ico.NFTFrac = 0.30, 0.15, 0.05 // remainder -> ICO/router
			ico.OracleFrac = 0.20                                       // hot feed overwrites (pure ww)
			fig, err := bench.AblationFigure(bench.SpeedupConfig{Workload: ico, Blocks: blocks})
			if err != nil {
				return err
			}
			fmt.Print(fig.Render())
			fmt.Println("workload: ICO-launch mix (hot commutative counters dominate)")

		case "pipeline":
			rep, err := bench.MeasurePipelineTraced(bench.SpeedupConfig{Workload: low, Blocks: max(blocks, 3)}, events, ledger, metrics)
			if err != nil {
				return err
			}
			fmt.Print(rep.Render())
			fmt.Println("pipeline: block N+1 analyzed while block N executes (Fig. 2 offline workflow)")

			soak, err := bench.RunPipelineSoak(bench.PipelineSoakConfig{
				Blocks: pipe.blocks, Txs: pipe.txs, Threads: pipe.threads,
				Seed: seed, Backend: pipe.backend, Timeline: pipe.timeline,
				Metrics: metrics,
			})
			if err != nil {
				return err
			}
			fmt.Print(soak.Render())
			if err := soak.Validate(); err != nil {
				return fmt.Errorf("pipeline soak validation: %w", err)
			}
			if pipe.jsonPath != "" {
				if err := soak.WriteJSON(pipe.jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", pipe.jsonPath)
			}
			if pipe.timelinePath != "" {
				snap := telemetry.TimelineSnapshot{
					Schema:  telemetry.TimelineSchema,
					Samples: soak.CleanLeg.Samples,
					Gaps:    soak.FaultLeg.Gaps,
				}
				data, err := json.MarshalIndent(snap, "", "  ")
				if err != nil {
					return err
				}
				if err := os.WriteFile(pipe.timelinePath, append(data, '\n'), 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", pipe.timelinePath)
			}

		case "hotpath":
			cfg := bench.DefaultHotpathConfig()
			cfg.Txs = hot.txs
			cfg.BlockSizes = hot.sizes
			cfg.Rounds = hot.rounds
			cfg.Seed = seed
			rep, err := bench.RunHotpath(cfg)
			if err != nil {
				return err
			}
			// Merge before validating: Validate also flags makespan-speedup
			// regressions against whatever before-series got installed.
			if hot.baseline != "" {
				if err := bench.MergeHotpathBaseline(rep, hot.baseline); err != nil {
					return err
				}
			}
			if err := rep.Validate(); err != nil {
				return fmt.Errorf("hotpath validation: %w", err)
			}
			if hot.check {
				if err := rep.CheckRegression(hot.speedupTol, hot.allocsTol); err != nil {
					return fmt.Errorf("hotpath regression gate: %w", err)
				}
				fmt.Printf("hotpath regression gate passed (speedup tol %.0f%%, allocs tol %.0f%%)\n",
					hot.speedupTol*100, hot.allocsTol*100)
			}
			fmt.Print(rep.Render())
			if hot.jsonPath != "" {
				if err := rep.WriteJSON(hot.jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", hot.jsonPath)
			}
			if events != nil {
				// Traced re-execution: one instrumented DMVCC block per
				// workload, critical paths on stdout, timeline in -trace.
				paths, err := bench.TraceHotpath(cfg, 8, events, ledger, metrics)
				if err != nil {
					return err
				}
				for _, cp := range paths {
					fmt.Print(cp.Render())
				}
			}

		case "conflicts":
			cfg := bench.DefaultConflictsConfig()
			cfg.Txs = conf.txs
			cfg.Seed = seed
			cfg.PerTx = conf.perTx
			cfg.Log = events
			rep, err := bench.RunConflicts(cfg)
			if err != nil {
				return err
			}
			fmt.Print(rep.Render())
			if conf.jsonPath != "" {
				if err := rep.WriteJSON(conf.jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", conf.jsonPath)
			}
			if conf.strict {
				if err := checkConflictsReport(conf.jsonPath); err != nil {
					return fmt.Errorf("strict conflicts audit: %w", err)
				}
				fmt.Println("strict conflicts audit passed: every abort explained, deterministic workload fully predicted")
			}

		case "chaos":
			rep, err := bench.RunChaos(bench.ChaosConfig{
				Blocks: chaos.blocks, Txs: chaos.txs, Threads: chaos.threads, Seed: seed,
			})
			if err != nil {
				return err
			}
			fmt.Print(rep.Render())
			if err := rep.Validate(); err != nil {
				return fmt.Errorf("chaos soak validation: %w", err)
			}
			fmt.Println("chaos soak passed: every faulted block committed the serial root")
			if chaos.jsonPath != "" {
				if err := rep.WriteJSON(chaos.jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", chaos.jsonPath)
			}

		case "crashtorture":
			rep, err := bench.RunCrashTorture(bench.CrashTortureConfig{
				Cycles: crash.cycles, BlocksPerCycle: crash.blocks,
				Txs: crash.txs, Threads: crash.threads, Seed: seed,
			})
			if err != nil {
				return err
			}
			fmt.Print(rep.Render())
			if err := rep.Validate(); err != nil {
				return fmt.Errorf("crashtorture validation: %w", err)
			}
			fmt.Println("crashtorture passed: every crash recovered to the twin's exact root")
			if crash.jsonPath != "" {
				if err := rep.WriteJSON(crash.jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", crash.jsonPath)
			}

		case "divergence":
			cfg := bench.DivergenceConfig{
				Blocks: div.blocks, Txs: div.txs, Threads: div.threads, Seed: seed,
				OutDir: filepath.Dir(div.jsonPath), Metrics: metrics, Store: div.store,
			}
			var rep *bench.DivergenceRun
			var err error
			if div.replayPath != "" {
				rep, err = bench.RunDivergenceReplay(div.replayPath, cfg)
			} else {
				// -record is the default for this experiment; the flag exists
				// so invocations can state the mode explicitly.
				_ = div.record
				rep, err = bench.RunDivergenceRecord(cfg)
			}
			if err != nil {
				return err
			}
			fmt.Print(rep.Render())
			if div.jsonPath != "" {
				if err := rep.WriteJSON(div.jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", div.jsonPath)
			}
			if rt := rep.RoundTrip; rt != nil && !rep.Diverged && !rt.Passed() {
				return fmt.Errorf("replay round-trip failed: %s", rt.Note)
			}

		case "statescale":
			cfg := bench.DefaultStateScaleConfig()
			cfg.Seed = seed
			if len(scale.accounts) > 0 {
				cfg.Accounts = scale.accounts
			}
			if scale.blocks > 0 {
				cfg.Blocks = scale.blocks
			}
			if scale.writes > 0 {
				cfg.WritesPerBlock = scale.writes
			}
			if scale.refMax > 0 {
				cfg.RefMaxAccounts = scale.refMax
			}
			if scale.minSpeedup > 0 {
				cfg.MinReadSpeedup = scale.minSpeedup
			}
			rep, err := bench.RunStateScale(cfg)
			if err != nil {
				return err
			}
			fmt.Print(rep.Render())
			if err := rep.Validate(); err != nil {
				return fmt.Errorf("statescale validation: %w", err)
			}
			fmt.Println("statescale passed: byte-identical roots across backends, flat reads past the bar, commit off the critical path")
			if scale.jsonPath != "" {
				if err := rep.WriteJSON(scale.jsonPath); err != nil {
					return err
				}
				fmt.Printf("wrote %s\n", scale.jsonPath)
			}

		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	if exp == "all" {
		for _, name := range []string{"rq1", "fig7a", "fig7b", "aborts", "ablation", "pipeline", "conflicts", "fig8a", "fig8b"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		return nil
	}
	return runOne(exp)
}
