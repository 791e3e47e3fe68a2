package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"dmvcc/internal/baseline"
	"dmvcc/internal/core"
	"dmvcc/internal/sag"
	"dmvcc/internal/schedsim"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/workload"
)

// HotpathSchema identifies the BENCH_hotpath.json format. Bump on breaking
// layout changes so downstream tooling can dispatch.
const HotpathSchema = "dmvcc-bench/hotpath/v1"

// HotpathConfig parameterizes the scheduler hot-path experiment.
type HotpathConfig struct {
	// Txs is the base block size (the acceptance workload uses 1024). The
	// high-contention workload runs at this size.
	Txs int
	// BlockSizes are the mainnet-mix block sizes to sweep. Empty means the
	// default scaling ladder {Txs, 4*Txs, 10*Txs} — 1024/4096/10240 at the
	// default base size — which shows whether per-dispatch and per-alloc
	// overheads stay flat as blocks grow.
	BlockSizes []int
	// Rounds is how many times each configuration re-executes the block
	// inside one timed window (more rounds = less noise, more wall time).
	Rounds int
	// Threads are the worker counts to sweep.
	Threads []int
	// Seed fixes the workload.
	Seed int64
	// CommitWorkers is the parallelism for the parallel-commit comparison
	// (0 = GOMAXPROCS).
	CommitWorkers int
}

// DefaultHotpathConfig is the checked-in reference configuration. Commit
// workers are fixed at 4 (not GOMAXPROCS) so the parallel storage-trie path
// genuinely runs, and its RootMatch check means something, even on
// single-core CI boxes.
func DefaultHotpathConfig() HotpathConfig {
	return HotpathConfig{Txs: 1024, Rounds: 2, Threads: []int{1, 4, 8, 16}, Seed: 1, CommitWorkers: 4}
}

// HotpathMeasure is one measured execution configuration. All per-tx values
// average over Rounds x Txs transactions.
//
// SpeedupVsSerial is wall-clock and therefore only a parallelism measurement
// when the host actually has that many cores free; MakespanSpeedupVsSerial
// replays the run's recorded dependency traces through the virtual-time
// scheduling simulator (the paper's §V-B methodology, gas as the time unit),
// so it reports the schedule's intrinsic parallelism independent of the
// capture machine's core count.
type HotpathMeasure struct {
	NsPerTx                 float64 `json:"ns_per_tx"`
	AllocsPerTx             float64 `json:"allocs_per_tx"`
	BytesPerTx              float64 `json:"bytes_per_tx"`
	Aborts                  int64   `json:"aborts"`
	BlockedReads            int64   `json:"blocked_reads"`
	Executions              int64   `json:"executions"`
	Replays                 int64   `json:"replays"`
	DispatchRuns            int64   `json:"dispatch_runs"`
	DispatchedTxs           int64   `json:"dispatched_txs"`
	SpeedupVsSerial         float64 `json:"speedup_vs_serial"`
	MakespanSpeedupVsSerial float64 `json:"makespan_speedup_vs_serial"`
}

// HotpathThread is the before/after pair at one thread count. Before is the
// previous checked-in run (the trajectory); After is this run.
type HotpathThread struct {
	Threads int             `json:"threads"`
	Before  *HotpathMeasure `json:"before,omitempty"`
	After   HotpathMeasure  `json:"after"`
}

// HotpathCommit compares the serial and parallel DB.Commit on the block's
// serial write set. Roots must match byte for byte.
type HotpathCommit struct {
	SerialNs   int64 `json:"serial_ns"`
	ParallelNs int64 `json:"parallel_ns"`
	Workers    int   `json:"workers"`
	RootMatch  bool  `json:"root_match"`
}

// HotpathWorkload is one workload's full sweep.
type HotpathWorkload struct {
	Name          string          `json:"name"`
	Txs           int             `json:"txs"`
	Rounds        int             `json:"rounds"`
	SerialNsPerTx float64         `json:"serial_ns_per_tx"`
	Commit        HotpathCommit   `json:"commit"`
	Threads       []HotpathThread `json:"threads"`
}

// HotpathReport is the machine-readable perf baseline persisted at the repo
// root as BENCH_hotpath.json. Every later perf PR is measured against it.
type HotpathReport struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Columns says, per HotpathMeasure field, which clock it was read from:
	// wall-clock numbers belong to the capture machine and its core count,
	// virtual-time ones and counts do not.
	Columns   map[string]string `json:"columns"`
	Workloads []HotpathWorkload `json:"workloads"`
}

// hotpathColumns labels the HotpathMeasure fields (and the two wall-clock
// workload fields) for HotpathReport.Columns.
var hotpathColumns = map[string]string{
	"serial_ns_per_tx":           "wall-clock",
	"commit":                     "wall-clock",
	"ns_per_tx":                  "wall-clock",
	"speedup_vs_serial":          "wall-clock ratio (serial_ns_per_tx / ns_per_tx of the same run)",
	"makespan_speedup_vs_serial": "virtual-time (gas, schedsim over the recorded traces)",
	"allocs_per_tx":              "count",
	"bytes_per_tx":               "count",
	"aborts":                     "count",
	"blocked_reads":              "count (timing-dependent)",
	"executions":                 "count",
	"replays":                    "count (executions that committed their pre-run outcome)",
	"dispatch_runs":              "count (timing-dependent)",
	"dispatched_txs":             "count",
}

// hotpathWorkloads returns the named workload configs of the sweep: the
// paper's low-contention mainnet mix at each block size on the scaling
// ladder, plus the skewed high-contention setting at the base size.
func hotpathWorkloads(cfg HotpathConfig) []struct {
	name string
	wl   workload.Config
} {
	sizes := cfg.BlockSizes
	if len(sizes) == 0 {
		sizes = []int{cfg.Txs, 4 * cfg.Txs, 10 * cfg.Txs}
	}
	var out []struct {
		name string
		wl   workload.Config
	}
	for _, n := range sizes {
		low := workload.DefaultConfig()
		low.TxPerBlock = n
		low.Seed = cfg.Seed
		out = append(out, struct {
			name string
			wl   workload.Config
		}{fmt.Sprintf("mainnet-mix-%d", n), low})
	}
	base := workload.DefaultConfig()
	base.TxPerBlock = cfg.Txs
	base.Seed = cfg.Seed
	out = append(out, struct {
		name string
		wl   workload.Config
	}{fmt.Sprintf("high-contention-%d", cfg.Txs), base.HighContention()})
	return out
}

// RunHotpath executes the hot-path sweep and returns the report (After
// fields only; merge a previous run with MergeHotpathBaseline).
func RunHotpath(cfg HotpathConfig) (*HotpathReport, error) {
	if cfg.Txs <= 0 {
		cfg.Txs = 1024
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 2
	}
	if len(cfg.Threads) == 0 {
		cfg.Threads = []int{1, 4, 8, 16}
	}
	if cfg.CommitWorkers <= 0 {
		cfg.CommitWorkers = runtime.GOMAXPROCS(0)
	}

	rep := &HotpathReport{
		Schema:     HotpathSchema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Columns:    hotpathColumns,
	}
	for _, w := range hotpathWorkloads(cfg) {
		hw, err := runHotpathWorkload(w.name, w.wl, cfg)
		if err != nil {
			return nil, fmt.Errorf("hotpath %s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, *hw)
	}
	return rep, nil
}

// runHotpathWorkload measures serial, DMVCC-per-thread-count, and the
// commit path for one workload. Execution never commits, so the same block
// re-executes against the same genesis snapshot every round.
func runHotpathWorkload(name string, wl workload.Config, cfg HotpathConfig) (*HotpathWorkload, error) {
	world, err := workload.BuildWorld(wl)
	if err != nil {
		return nil, err
	}
	blockCtx := world.BlockContext()
	txs := world.NextBlock()
	an := sag.NewAnalyzer(world.Registry)
	csags, err := an.AnalyzeBlock(txs, world.DB, blockCtx)
	if err != nil {
		return nil, err
	}

	out := &HotpathWorkload{Name: name, Txs: len(txs), Rounds: cfg.Rounds}

	// Serial reference (the speedup denominator).
	serialRes, err := baseline.ExecuteSerial(world.DB, blockCtx, txs)
	if err != nil {
		return nil, err
	}
	serialNs, err := timeRounds(cfg.Rounds, func() error {
		_, err := baseline.ExecuteSerial(world.DB, blockCtx, txs)
		return err
	})
	if err != nil {
		return nil, err
	}
	totalTx := float64(cfg.Rounds * len(txs))
	out.SerialNsPerTx = float64(serialNs) / totalTx

	for _, th := range cfg.Threads {
		ex := core.NewExecutor(world.Registry, th)
		// Warmup round: page in code paths and steady-state the heap.
		if _, err := ex.ExecuteBlock(world.DB, blockCtx, txs, csags); err != nil {
			return nil, err
		}
		var stats core.Stats
		var lastRes *core.Result
		runtime.GC()
		var msBefore, msAfter runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		start := time.Now()
		for r := 0; r < cfg.Rounds; r++ {
			res, err := ex.ExecuteBlock(world.DB, blockCtx, txs, csags)
			if err != nil {
				return nil, err
			}
			stats.Executions += res.Stats.Executions
			stats.Replays += res.Stats.Replays
			stats.Aborts += res.Stats.Aborts
			stats.BlockedReads += res.Stats.BlockedReads
			stats.DispatchRuns += res.Stats.DispatchRuns
			stats.DispatchedTxs += res.Stats.DispatchedTxs
			lastRes = res
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&msAfter)

		m := HotpathMeasure{
			NsPerTx:       float64(elapsed.Nanoseconds()) / totalTx,
			AllocsPerTx:   float64(msAfter.Mallocs-msBefore.Mallocs) / totalTx,
			BytesPerTx:    float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / totalTx,
			Aborts:        stats.Aborts,
			BlockedReads:  stats.BlockedReads,
			Executions:    stats.Executions,
			Replays:       stats.Replays,
			DispatchRuns:  stats.DispatchRuns,
			DispatchedTxs: stats.DispatchedTxs,
		}
		if m.NsPerTx > 0 {
			m.SpeedupVsSerial = out.SerialNsPerTx / m.NsPerTx
		}
		// Virtual-time speedup from the last round's dependency traces:
		// serial gas over the simulated th-thread makespan (§V-B).
		var serialGas uint64
		for _, tr := range lastRes.Traces {
			serialGas += tr.Gas
		}
		if span := schedsim.DMVCC(lastRes.Traces, th, lastRes.WastedGas); span > 0 {
			m.MakespanSpeedupVsSerial = float64(serialGas) / float64(span)
		}
		out.Threads = append(out.Threads, HotpathThread{Threads: th, After: m})
	}

	commit, err := measureCommit(wl, serialRes.WriteSet, cfg.CommitWorkers)
	if err != nil {
		return nil, err
	}
	out.Commit = *commit
	return out, nil
}

// measureCommit times DB.Commit of the block's write set on twin worlds,
// serial vs parallel, and verifies the roots are byte-identical.
func measureCommit(wl workload.Config, ws *state.WriteSet, workers int) (*HotpathCommit, error) {
	w1, err := workload.BuildWorld(wl)
	if err != nil {
		return nil, err
	}
	w2, err := workload.BuildWorld(wl)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	rootSerial, err := commitWith(w1, ws, 1)
	if err != nil {
		return nil, err
	}
	serialNs := time.Since(start).Nanoseconds()
	start = time.Now()
	rootParallel, err := commitWith(w2, ws, workers)
	if err != nil {
		return nil, err
	}
	parallelNs := time.Since(start).Nanoseconds()
	return &HotpathCommit{
		SerialNs:   serialNs,
		ParallelNs: parallelNs,
		Workers:    workers,
		RootMatch:  rootSerial == rootParallel,
	}, nil
}

// timeRounds runs fn Rounds times and returns the elapsed nanoseconds.
func timeRounds(rounds int, fn func() error) (int64, error) {
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start).Nanoseconds(), nil
}

// hotpathSpeedupTol is the fraction the virtual-time makespan speedup may
// drop below the merged baseline before Validate fails the report. Makespan
// speedups are computed from recorded dependency traces, not wall clock, so
// they are stable across machines; the tolerance only absorbs workload-seed
// and trace-sampling jitter.
const hotpathSpeedupTol = 0.25

// Validate checks the report's measurement preconditions. The critical one:
// a multi-threaded sweep captured at GOMAXPROCS=1 is not a parallelism
// measurement at all — every "parallel" configuration time-slices one OS
// thread — so a report whose sweep includes threads > 1 must have been
// captured with GOMAXPROCS > 1 (set the GOMAXPROCS env var on constrained
// boxes). It also requires the commit root-equivalence check to have passed.
//
// When the report carries merged baseline data (Before pairs installed by
// MergeHotpathBaseline), Validate additionally flags regressions: any thread
// count whose makespan speedup fell more than hotpathSpeedupTol below its
// recorded Before fails the report. Workloads without any Before pair are
// first captures (new block sizes on the ladder) and pass this section; a
// report where no workload has a pair passes it vacuously — CI gates that
// demand trajectory continuity call CheckRegression, which does not.
func (r *HotpathReport) Validate() error {
	if r.Schema != HotpathSchema {
		return fmt.Errorf("schema %q != %q", r.Schema, HotpathSchema)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no workloads in report")
	}
	maxThreads := 0
	for _, w := range r.Workloads {
		if len(w.Threads) == 0 {
			return fmt.Errorf("workload %s: no thread measurements", w.Name)
		}
		for _, t := range w.Threads {
			if t.Threads > maxThreads {
				maxThreads = t.Threads
			}
			if t.Before == nil || t.Before.MakespanSpeedupVsSerial <= 0 {
				continue // first capture of this workload@threads (or pre-makespan baseline)
			}
			floor := t.Before.MakespanSpeedupVsSerial * (1 - hotpathSpeedupTol)
			if t.After.MakespanSpeedupVsSerial < floor {
				return fmt.Errorf("workload %s @ %d threads: makespan speedup regressed %.2fx -> %.2fx (floor %.2fx)",
					w.Name, t.Threads, t.Before.MakespanSpeedupVsSerial, t.After.MakespanSpeedupVsSerial, floor)
			}
		}
		if !w.Commit.RootMatch {
			return fmt.Errorf("workload %s: serial and parallel commit roots diverge", w.Name)
		}
	}
	if r.GOMAXPROCS <= 1 && maxThreads > 1 {
		return fmt.Errorf("captured at GOMAXPROCS=%d with a %d-thread sweep: not a parallelism measurement (re-run with GOMAXPROCS>1)",
			r.GOMAXPROCS, maxThreads)
	}
	return nil
}

// CheckRegression is the CI perf gate: it demands the report carries at
// least one merged before/after pair (a report with none means the
// checked-in baseline was never merged — the trajectory is severed) and
// that every pair stays within tolerance of its baseline. Wall-clock time
// is compared through SpeedupVsSerial — the DMVCC-over-serial ratio from
// the same run, so the capture machine's absolute speed cancels out —
// which may drop at most speedupTol below Before. Allocation counts are
// near-deterministic and may rise at most allocsTol above Before.
func (r *HotpathReport) CheckRegression(speedupTol, allocsTol float64) error {
	pairs := 0
	for _, w := range r.Workloads {
		for _, t := range w.Threads {
			if t.Before == nil {
				continue
			}
			pairs++
			if t.Before.SpeedupVsSerial > 0 {
				floor := t.Before.SpeedupVsSerial * (1 - speedupTol)
				if t.After.SpeedupVsSerial < floor {
					return fmt.Errorf("workload %s @ %d threads: wall-clock speedup vs serial regressed %.3fx -> %.3fx (floor %.3fx)",
						w.Name, t.Threads, t.Before.SpeedupVsSerial, t.After.SpeedupVsSerial, floor)
				}
			}
			if t.Before.AllocsPerTx > 0 {
				ceil := t.Before.AllocsPerTx * (1 + allocsTol)
				if t.After.AllocsPerTx > ceil {
					return fmt.Errorf("workload %s @ %d threads: allocs/tx regressed %.1f -> %.1f (ceiling %.1f)",
						w.Name, t.Threads, t.Before.AllocsPerTx, t.After.AllocsPerTx, ceil)
				}
			}
		}
	}
	if pairs == 0 {
		return fmt.Errorf("no before/after pairs in report: merge the checked-in baseline (-baseline BENCH_hotpath.json) before gating")
	}
	return nil
}

// MergeHotpathBaseline loads a previous report from path and installs its
// After measurements as the Before fields of rep (matched by workload name
// and thread count), making rep the next point on the perf trajectory.
// A missing file is not an error: the report simply has no Before points.
// A baseline that parses but shares no workload@threads key with rep is an
// error — a rename or config drift silently severing the trajectory is
// exactly what the before-series exists to prevent.
func MergeHotpathBaseline(rep *HotpathReport, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	var prev HotpathReport
	if err := json.Unmarshal(data, &prev); err != nil {
		return fmt.Errorf("parse baseline %s: %w", path, err)
	}
	byKey := make(map[string]HotpathMeasure)
	for _, w := range prev.Workloads {
		for _, t := range w.Threads {
			byKey[fmt.Sprintf("%s@%d", w.Name, t.Threads)] = t.After
		}
	}
	matched := 0
	for wi := range rep.Workloads {
		w := &rep.Workloads[wi]
		for ti := range w.Threads {
			if m, ok := byKey[fmt.Sprintf("%s@%d", w.Name, w.Threads[ti].Threads)]; ok {
				mm := m
				w.Threads[ti].Before = &mm
				matched++
			}
		}
	}
	if len(byKey) > 0 && matched == 0 {
		return fmt.Errorf("baseline %s shares no workload@threads key with this run: trajectory severed (workload rename or config drift?)", path)
	}
	return nil
}

// WriteJSON persists the report, pretty-printed for reviewable diffs.
func (r *HotpathReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Render formats the report as a human-readable table.
func (r *HotpathReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== hotpath: scheduler hot-path baseline (%s, %s/%s, GOMAXPROCS=%d) ==\n",
		r.GoVersion, r.GOOS, r.GOARCH, r.GOMAXPROCS)
	for _, w := range r.Workloads {
		fmt.Fprintf(&sb, "-- %s: %d txs x %d rounds, serial %.0f ns/tx --\n",
			w.Name, w.Txs, w.Rounds, w.SerialNsPerTx)
		// ns/tx and speedup are wall-clock; makespan is virtual time.
		fmt.Fprintf(&sb, "%8s %14s %14s %12s %8s %10s %9s %9s %13s %14s\n",
			"threads", "ns/tx(wall)", "allocs/tx", "bytes/tx", "aborts", "blocked", "replays", "runlen", "speedup(wall)", "makespan(virt)")
		row := func(label string, m HotpathMeasure) {
			fmt.Fprintf(&sb, "%8s %14.0f %14.1f %12.0f %8d %10d %9d %9.1f %13.2f %14.2f\n",
				label, m.NsPerTx, m.AllocsPerTx, m.BytesPerTx, m.Aborts, m.BlockedReads, m.Replays,
				meanRunLen(m), m.SpeedupVsSerial, m.MakespanSpeedupVsSerial)
		}
		for _, t := range w.Threads {
			row(fmt.Sprint(t.Threads), t.After)
			if t.Before != nil {
				row("(before)", *t.Before)
			}
		}
		fmt.Fprintf(&sb, "commit: serial %.2fms, parallel(%d) %.2fms, roots match: %v\n",
			float64(w.Commit.SerialNs)/1e6, w.Commit.Workers,
			float64(w.Commit.ParallelNs)/1e6, w.Commit.RootMatch)
	}
	return sb.String()
}

// meanRunLen is the average dispatch batch size (transactions per heap/lock
// round-trip); 0 when the measure predates dispatch telemetry.
func meanRunLen(m HotpathMeasure) float64 {
	if m.DispatchRuns == 0 {
		return 0
	}
	return float64(m.DispatchedTxs) / float64(m.DispatchRuns)
}

// commitWith commits ws into the world's DB with the given worker count.
func commitWith(w *workload.World, ws *state.WriteSet, workers int) (types.Hash, error) {
	return w.DB.CommitWith(ws, workers)
}
