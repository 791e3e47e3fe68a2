package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose: 100..1
	}
	for _, tc := range []struct {
		p      float64
		want   float64
		beyond int
	}{{50, 50, 50}, {90, 90, 10}, {99, 99, 1}, {100, 100, 0}} {
		got, beyond := percentile(xs, tc.p)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("p%v of 1..100 = %v with %d beyond, want %v with %d", tc.p, got, beyond, tc.want, tc.beyond)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if v, beyond := percentile(nil, 90); v != 0 || beyond != 0 {
		t.Errorf("percentile of no samples = %v, %d", v, beyond)
	}
}

// TestP90KeepsTenSamplesBeyond: a percentile is only reported with at least
// ten samples beyond it, so the traced run's latency phase must be long
// enough for its p90, at every workload's reference size.
func TestP90KeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct{ n, beyond int }{{10, 1}, {99, 9}, {100, 10}, {105, 10}, {200, 20}} {
		if _, beyond := percentile(make([]float64, tc.n), 90); beyond != tc.beyond {
			t.Errorf("%d samples: %d beyond p90, want %d", tc.n, beyond, tc.beyond)
		}
	}
	for _, sp := range specs {
		n := sp.ref.tracedPhases().latBlocks
		if _, beyond := percentile(make([]float64, n), 90); beyond < 10 {
			t.Errorf("%s: only %d of %d latency samples lie beyond the p90", sp.name, beyond, n)
		}
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "block", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a by 10ms
		{ID: 3, Parent: 0, Name: "c", Start: 90 * ms, End: 120 * ms}, // runs past the parent
		{ID: 4, Parent: 1, Name: "a.child", Start: 10 * ms, End: 25 * ms},
		{ID: 5, Parent: 0, Name: "d", Start: 35 * ms, End: 50 * ms}, // inside a∪b
	}
	self := selfTimes(spans)
	want := []time.Duration{40 * ms, 15 * ms, 30 * ms, 30 * ms, 15 * ms, 15 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	byName := selfByName(spans)
	if byName["block"] != 40*ms || byName["a.child"] != 15*ms {
		t.Errorf("selfByName = %v", byName)
	}
}

func TestMetricAndWorkloadNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("invalid name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, sp := range specs {
		check(sp.name)
		if sp.why == "" || len(sp.why) > 200 {
			t.Errorf("%s: why must be one line of at most 200 characters", sp.name)
		}
	}
	for _, d := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: invalid unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Name != "setup_s" && d.Bound > 0.12) {
			t.Errorf("%s: bound %v out of range", d.Name, d.Bound)
		}
	}
}

// TestManifestMatchesProgram keeps BENCHMARK.json and the program's own
// tables from drifting apart.
func TestManifestMatchesProgram(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, reference sizes are for %d", m.RunSeconds, refSeconds)
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads in manifest, %d in program", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: manifest %q/%q, program %q/%q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs:\nmanifest %+v\nprogram  %+v", m.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs:\nmanifest %+v\nprogram  %+v", m.PerLayer, perLayerDefs)
	}
}

// smokeSizes is a 4-block run: one warm-up and one measured pipelined chunk
// of one block, one latency block, one staged block.
var smokeSizes = sizes{setupReps: 1, chunk: 1, chunks: 1, latBlocks: 1, stagedBlocks: 1, probeReads: 100}

// smokeConfig shrinks a workload to 32-transaction blocks over a small
// population, keeping its mix.
func smokeConfig(sp spec) workload.Config {
	c := sp.cfg()
	c.TxPerBlock = 32
	c.Users = 2000
	return c
}

func blockHashes(p *pair) []types.Hash {
	var hs []types.Hash
	for _, b := range p.blocks {
		for _, tx := range b.Txs {
			hs = append(hs, tx.Hash())
		}
	}
	return hs
}

func TestSeedIsTheOnlyRandomness(t *testing.T) {
	sp := specs[0]
	build := func(seed int64) []types.Hash {
		p, _, err := setup(sp, smokeConfig(sp), seed, 3, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer p.close()
		return blockHashes(p)
	}
	a, again, b := build(defaultSeed), build(defaultSeed), build(heldOutSeed)
	if len(a) != 3*32 {
		t.Fatalf("got %d transactions, want %d", len(a), 3*32)
	}
	if !reflect.DeepEqual(a, again) {
		t.Error("same seed produced different block transaction hashes")
	}
	if reflect.DeepEqual(a, b) {
		t.Error("different seeds produced identical blocks")
	}
}

func TestSmokeAllWorkloads(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			d := dirs{tmp: t.TempDir(), out: t.TempDir()}
			rec := record{Stamp: newStamp(sp, defaultSeed, 1, true, 2, d.tmp)}
			r, setups, err := measure(sp, smokeConfig(sp), smokeSizes, defaultSeed, true, 2, d, &rec)
			if err != nil {
				t.Fatal(err)
			}
			if r.oracle.attempted != 4 || r.oracle.failed != 0 {
				t.Errorf("oracle: %d attempted, %d failed, want 4 and 0", r.oracle.attempted, r.oracle.failed)
			}
			if r.txsCommitted != 4*32 {
				t.Errorf("committed %d transactions, want %d", r.txsCommitted, 4*32)
			}
			values := r.endToEnd(setups)
			for _, def := range endToEndDefs {
				if v, ok := values[def.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end %s = %v, want > 0", def.Name, v)
				}
			}
			for _, def := range perLayerDefs {
				m, ok := rec.Result.Metrics[def.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != def.Unit {
					t.Errorf("per-layer %s = %+v (present %v)", def.Name, m, ok)
				}
			}
			if got := rec.Result.Metrics["failed_block_frac"].Value; got != 0 {
				t.Errorf("failed_block_frac = %v on a healthy run", got)
			}
			if sp.disk != (rec.Result.Metrics["disk_bytes_per_tx"].Value > 0) {
				t.Errorf("disk_bytes_per_tx = %v with disk=%v", rec.Result.Metrics["disk_bytes_per_tx"].Value, sp.disk)
			}

			// The block spans are partitioned by the layers' self times.
			sum := 0.0
			for _, v := range rec.LayerSelfMs {
				sum += v
			}
			if math.Abs(sum-rec.BlockSpanMs) > 0.1*rec.BlockSpanMs {
				t.Errorf("layer self times sum to %.3f ms, block spans to %.3f ms", sum, rec.BlockSpanMs)
			}
			for _, layer := range []string{"sag.analyze", "evm.apply", "baseline.serial.execute", "core.execute.t1", "core.execute.tN", "state.commit", "state.flat", "trie.account"} {
				if _, ok := rec.LayerSelfMs[layer]; !ok {
					t.Errorf("no %s span in the trace", layer)
				}
			}
			checkChromeTrace(t, tracePath(d, sp.name))
		})
	}
}

// checkChromeTrace applies cmd/tracecheck's structural rules to the written
// trace (check.sh runs the real tool on the full-size traces).
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	slices, meta := 0, 0
	for i, ev := range tf.TraceEvents {
		for _, key := range []string{"pid", "tid", "ts"} {
			if _, ok := ev[key].(float64); !ok {
				t.Fatalf("event %d: missing numeric %s", i, key)
			}
		}
		switch ev["ph"] {
		case "X":
			slices++
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("event %d: slice without dur", i)
			}
			args, _ := ev["args"].(map[string]any)
			if args["block"] == nil || args["id"] == nil || args["parent"] == nil {
				t.Fatalf("event %d: slice without id, parent and block: %v", i, args)
			}
		case "M":
			meta++
		}
	}
	if slices == 0 || meta == 0 {
		t.Fatalf("%d slices, %d metadata events", slices, meta)
	}
}

// TestCorruptedTwinCountsAsFailedBlocks puts the serial twin one garbage
// commit ahead, so no DMVCC root can match: every block must be counted as
// failed and the run reported incorrect.
func TestCorruptedTwinCountsAsFailedBlocks(t *testing.T) {
	sp := specs[0]
	d := dirs{tmp: t.TempDir(), out: t.TempDir()}
	p, _, err := setup(sp, smokeConfig(sp), defaultSeed, smokeSizes.blocksNeeded(false), d.tmp)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	ws := state.NewWriteSet()
	ws.Balances[types.Address{0xba, 0xd0}] = u256.NewUint64(1)
	if _, err := p.serial.DB.Commit(ws); err != nil {
		t.Fatal(err)
	}
	r := newRunner(sp, smokeSizes, 2, p)
	if err := r.phases(false, defaultSeed, d, &record{}); err != nil {
		t.Fatal(err)
	}
	if r.oracle.attempted != 3 || r.oracle.failed != 3 {
		t.Errorf("oracle: %d attempted, %d failed, want 3 and 3", r.oracle.attempted, r.oracle.failed)
	}
	if frac := ratio(float64(r.oracle.failed), float64(r.oracle.attempted)); frac != 1 {
		t.Errorf("failed_block_frac = %v, want 1", frac)
	}
}
