// Command benchmark is the repository's one chain-level benchmark: a
// validator running DMVCC against the same validator running serially, on
// the wall clock, through analyse → execute → commit → fsync.
//
// With -workload it performs one run and prints, as the last line of its
// standard output, the result object BENCHMARK.json's contract describes.
// Without it, it runs every workload untraced and traced (each in a child
// process, so peak memory is per workload), prints every metric and writes
// out/results.json plus one Chrome trace per workload; -aa does that twice
// and fails when the two disagree by more than a metric's bound.
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"dmvcc/internal/workload"
)

// defaultSeed is the seed every documented reference number uses; a claim
// must also hold on heldOutSeed, which no tuning run may use.
const (
	defaultSeed = 1
	heldOutSeed = 20230718
)

// result is the object a single run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is what a run writes to out/: the result, the conditions it was
// measured under and, for a traced run, where the time went.
type record struct {
	Stamp  stamp  `json:"stamp"`
	Result result `json:"result"`
	Error  string `json:"error,omitempty"`
	// Series are the raw samples behind the reported medians and percentiles.
	Series map[string][]float64 `json:"series"`
	// LayerSelfMs is the self time per span name summed over the staged
	// blocks; BlockSpanMs is the summed block spans they partition.
	LayerSelfMs map[string]float64 `json:"layer_self_ms,omitempty"`
	BlockSpanMs float64            `json:"block_span_ms,omitempty"`
}

// dirs are the only places the benchmark writes: tmp for disk-backed worlds
// (deleted after each run) and out for results and traces.
type dirs struct{ tmp, out string }

func main() {
	workloadName := flag.String("workload", "", "run this one workload and print its result object (default: the whole suite)")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("the only source of randomness: worlds, blocks and read-probe keys (held-out seed: %d)", heldOutSeed))
	seconds := flag.Int("seconds", refSeconds, "nominal measuring time; block counts scale with it")
	trace := flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	aa := flag.Bool("aa", false, "run the suite twice and fail if the two runs disagree by more than a metric's bound")
	flag.Parse()

	// DMVCC threads = GOMAXPROCS = min(nproc, 4), unless the caller pinned
	// GOMAXPROCS in the environment.
	if os.Getenv("GOMAXPROCS") == "" && runtime.NumCPU() > 4 {
		runtime.GOMAXPROCS(4)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	home := os.Getenv("DMVCC_BENCH_HOME") // set by run.sh to this directory
	if home == "" {
		home = "."
	}
	d := dirs{tmp: filepath.Join(home, ".cache", "tmp"), out: filepath.Join(home, "out")}
	for _, dir := range []string{d.tmp, d.out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
	}

	if *workloadName != "" {
		sp, err := specByName(*workloadName)
		if err != nil {
			fatal(err)
		}
		rec := runOne(sp, *seed, *seconds, *trace == 1, d)
		if err := writeJSON(recordPath(d, sp.name, *trace == 1), rec); err != nil {
			fatal(err)
		}
		line, err := json.Marshal(rec.Result)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if rec.Error != "" {
			fmt.Fprintln(os.Stderr, "benchmark:", rec.Error)
			os.Exit(1)
		}
		return
	}
	if err := suite(*seed, *seconds, *aa, d); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if errors.Is(err, errDisagree) {
			os.Exit(3) // distinct, so check.sh can tell noise at reduced size from failure
		}
		os.Exit(1)
	}
}

// errDisagree reports an A/A comparison beyond a bound.
var errDisagree = errors.New("A/A: two runs of the same code disagree by more than a bound")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func recordPath(d dirs, workload string, traced bool) string {
	kind := "untraced"
	if traced {
		kind = "traced"
	}
	return filepath.Join(d.out, workload+"."+kind+".json")
}

func tracePath(d dirs, workload string) string {
	return filepath.Join(d.out, "trace-"+workload+".json")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runOne performs one run of one workload. Errors end up in the record: the
// result object is printed either way, with correct false.
func runOne(sp spec, seed int64, seconds int, traced bool, d dirs) record {
	threads := runtime.GOMAXPROCS(0)
	sz := sp.ref
	if traced {
		sz = sz.tracedPhases()
	}
	sz = sz.scaled(float64(seconds) / refSeconds)
	rec := record{Stamp: newStamp(sp, seed, seconds, traced, threads, d.tmp)}
	r, setups, err := measure(sp, sp.cfg(), sz, seed, traced, threads, d, &rec)
	if err != nil {
		rec.Error = err.Error()
	}
	rec.Result.Attempted = r.oracle.attempted
	rec.Result.Failed = r.oracle.failed
	rec.Result.Correct = err == nil && r.oracle.failed == 0 && r.oracle.attempted > 0
	if rec.Result.Attempted == 0 {
		// Nothing ran (set-up failed): the contract wants attempted >= 1.
		rec.Result.Attempted, rec.Result.Failed = 1, 1
	}
	if !traced {
		rec.Result.Metrics = withUnits(endToEndDefs, r.endToEnd(setups))
	} else if rec.Result.Metrics == nil {
		rec.Result.Metrics = withUnits(perLayerDefs, nil) // the run failed before the staged loop
	}
	rec.Series = map[string][]float64{
		"setup_s": setups, "txs_per_s": r.dmvccTput, "serial_txs_per_s": r.serialTput,
		"block_latency_ms": r.dmvccLat, "serial_block_latency_ms": r.serialLat,
	}
	rec.Stamp.Blocks = r.oracle.attempted
	rec.Stamp.Txs = r.txsCommitted
	rec.Stamp.OracleChecked = true
	for name, xs := range rec.Series {
		rec.Stamp.Samples[name] = len(xs)
	}
	_, rec.Stamp.P90Beyond = percentile(r.dmvccLat, 90)
	return rec
}

// measure sets up the worlds, runs the phases and closes the worlds. The
// runner is returned even on error, for the counts it reached.
func measure(sp spec, cfg workload.Config, sz sizes, seed int64, traced bool, threads int, d dirs, rec *record) (*runner, []float64, error) {
	var (
		p      *pair
		setups []float64
	)
	// Set up several times and keep the last: one set-up is too short for
	// its time to repeat from run to run.
	for i := 0; i < sz.setupReps; i++ {
		if p != nil {
			if err := p.close(); err != nil {
				return &runner{}, setups, err
			}
		}
		var (
			dur time.Duration
			err error
		)
		p, dur, err = setup(sp, cfg, seed, sz.blocksNeeded(traced), d.tmp)
		if err != nil {
			return &runner{}, setups, err
		}
		setups = append(setups, dur.Seconds())
	}
	r := newRunner(sp, sz, threads, p)
	err := r.phases(traced, seed, d, rec)
	if cerr := p.close(); err == nil {
		err = cerr
	}
	return r, setups, err
}

// phases runs the throughput and latency phases and, traced, the staged
// loop, the read probe and the trace export.
func (r *runner) phases(traced bool, seed int64, d dirs, rec *record) error {
	logStart := r.durability().LogBytes
	if err := r.throughput(); err != nil {
		return err
	}
	if err := r.latency(); err != nil {
		return err
	}
	if !traced {
		return nil
	}
	st, err := r.stagedLoop()
	if err != nil {
		return err
	}
	readNs := r.readProbe(st, seed, r.sz.probeReads)
	rec.Result.Metrics = withUnits(perLayerDefs, r.perLayer(st, readNs, r.durability().LogBytes-logStart))
	rec.LayerSelfMs = map[string]float64{}
	for name, self := range selfByName(st.rec.spans) {
		rec.LayerSelfMs[name] = ms(self)
	}
	for _, s := range st.rec.spans {
		if s.Name == "block" {
			rec.BlockSpanMs += ms(s.End - s.Start)
		}
	}
	return writeChrome(tracePath(d, r.sp.name), r.sp.name, st.rec.spans)
}

// suite runs every workload untraced and traced, each in a child process;
// with aa it does so twice and compares the end-to-end metrics.
func suite(seed int64, seconds int, aa bool, d dirs) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	passes := 1
	if aa {
		passes = 2
	}
	var all [][]record
	failed := false
	for pass := 0; pass < passes; pass++ {
		var recs []record
		for _, sp := range specs {
			for _, traced := range []bool{false, true} {
				rec, err := runChild(exe, sp, seed, seconds, traced, d)
				if err != nil {
					return err
				}
				recs = append(recs, rec)
				if !rec.Result.Correct {
					failed = true
				}
			}
		}
		all = append(all, recs)
		printSuite(recs)
	}
	if err := writeJSON(filepath.Join(d.out, "results.json"), map[string]any{"passes": all}); err != nil {
		return err
	}
	if failed {
		return errors.New("at least one run failed or diverged from its serial twin")
	}
	if aa && !compareAA(all[0], all[1]) {
		return errDisagree
	}
	return nil
}

// runChild performs one run in a child process and reads back its record.
func runChild(exe string, sp spec, seed int64, seconds int, traced bool, d dirs) (record, error) {
	t := "0"
	if traced {
		t = "1"
	}
	cmd := exec.Command(exe, "--workload", sp.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", t)
	cmd.Stdout = os.Stderr // the child's result line; the record file carries the same
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	var rec record
	data, err := os.ReadFile(recordPath(d, sp.name, traced))
	if err != nil {
		return rec, fmt.Errorf("%s: no record (%v): %w", sp.name, runErr, err)
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", sp.name, err)
	}
	return rec, nil
}

// printSuite prints every metric of every run by name, with its unit, and
// for traced runs where the staged blocks' time went.
func printSuite(recs []record) {
	for _, rec := range recs {
		kind := "end-to-end"
		if rec.Stamp.Traced {
			kind = "per-layer"
		}
		fmt.Printf("== %s (%s) seed=%d threads=%d backend=%s fsync=%s correct=%v failed=%d/%d\n",
			rec.Stamp.Workload, kind, rec.Stamp.Seed, rec.Stamp.Threads, rec.Stamp.Backend,
			rec.Stamp.FsyncPolicy, rec.Result.Correct, rec.Result.Failed, rec.Result.Attempted)
		if rec.Error != "" {
			fmt.Printf("   error: %s\n", rec.Error)
		}
		names := make([]string, 0, len(rec.Result.Metrics))
		for name := range rec.Result.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := rec.Result.Metrics[name]
			fmt.Printf("   %-36s %14.4f %s\n", name, m.Value, m.Unit)
		}
		fmt.Printf("   samples: %v\n", rec.Stamp.Samples)
		if rec.Stamp.Traced {
			fmt.Printf("   latency samples beyond p90: %d\n", rec.Stamp.P90Beyond)
			printShares(rec)
		}
	}
}

// printShares prints each layer's self time as a share of the block spans,
// and the split of the DMVCC import path (analyze + execute at N threads +
// commit) that the workloads' purposes are stated in.
func printShares(rec record) {
	names := make([]string, 0, len(rec.LayerSelfMs))
	sum := 0.0
	for name, v := range rec.LayerSelfMs {
		names = append(names, name)
		sum += v
	}
	sort.Strings(names)
	fmt.Printf("   layer self time (sums to %.1f%% of the block spans):\n", 100*ratio(sum, rec.BlockSpanMs))
	for _, name := range names {
		fmt.Printf("     %-28s %10.1f ms %5.1f%%\n", name, rec.LayerSelfMs[name], 100*ratio(rec.LayerSelfMs[name], rec.BlockSpanMs))
	}
	sh := pathShares(rec.LayerSelfMs)
	fmt.Printf("   DMVCC path: sag %.1f%%, core %.1f%%, state+trie+kvdisk %.1f%%\n", 100*sh.sag, 100*sh.core, 100*sh.state)
}

// shares splits the DMVCC import path between its layers.
type shares struct{ sag, core, state float64 }

func pathShares(selfMs map[string]float64) shares {
	sag := selfMs["sag.analyze"]
	core := selfMs["core.execute.tN"]
	st := selfMs["state.commit"] + selfMs["state.flat"] + selfMs["trie.storage"] + selfMs["trie.account"] + selfMs["kvdisk.sync"]
	total := sag + core + st
	return shares{ratio(sag, total), ratio(core, total), ratio(st, total)}
}

// compareAA prints both passes side by side per (workload, end-to-end
// metric) and reports whether every pair agrees within the metric's bound.
func compareAA(a, b []record) bool {
	ok := true
	fmt.Printf("== A/A: two runs of the same code\n   %-18s %-30s %14s %14s %8s %7s\n", "workload", "metric", "A", "B", "diff", "bound")
	for i := range a {
		if a[i].Stamp.Traced {
			continue
		}
		for _, def := range endToEndDefs {
			va, vb := a[i].Result.Metrics[def.Name].Value, b[i].Result.Metrics[def.Name].Value
			diff := ratio(vb-va, va)
			verdict := ""
			if diff > def.Bound || diff < -def.Bound {
				verdict = "  DISAGREE"
				ok = false
			}
			fmt.Printf("   %-18s %-30s %14.4f %14.4f %+7.1f%% %6.0f%%%s\n",
				a[i].Stamp.Workload, def.Name, va, vb, 100*diff, 100*def.Bound, verdict)
		}
	}
	return ok
}
