// Package telemetry is the repo's observability substrate: the readers of
// the scheduler event log (internal/eventlog) — a Chrome trace-event /
// Perfetto exporter rendering block executions as per-worker timelines, a
// critical-path analyzer, conflict post-mortems (hot keys, cascade trees,
// C-SAG accuracy audit) and stall dumps — plus a metrics registry (counters,
// gauges, histograms) unifying the per-subsystem stats structs, the node-level
// stage-occupancy ledger with its rolling time series, and a live HTTP
// introspection endpoint. Every reader is a pure function over a block's
// events; nothing here is written to from the scheduler hot path.
package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a set-to-latest metric.
type Gauge struct {
	v atomic.Int64
}

// Set stores the latest value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the latest value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// defaultBuckets are exponential upper bounds suited to nanosecond
// latencies: 1µs up to ~17s, quadrupling.
var defaultBuckets = func() []float64 {
	b := make([]float64, 0, 13)
	for v := 1e3; v < 2e10; v *= 4 {
		b = append(b, v)
	}
	return b
}()

// Histogram accumulates value observations into exponential buckets plus
// count/sum/min/max, enough for latency distributions without reservoirs.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // ascending upper bounds; implicit +Inf overflow
	counts []uint64  // len(bounds)+1
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// newHistogram returns a histogram over the given ascending upper bounds
// (nil selects the default nanosecond-latency buckets).
func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = defaultBuckets
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]uint64, len(bounds)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// HistogramSnapshot is a point-in-time view of a histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
	// P50/P90/P99 are bucket-upper-bound approximations of the quantiles.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Buckets maps each upper bound to its cumulative count.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// MarshalJSON renders the overflow bucket's +Inf bound as the string "+Inf"
// (encoding/json rejects non-finite floats).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.UpperBound, 1) {
		return json.Marshal(struct {
			UpperBound string `json:"le"`
			Count      uint64 `json:"count"`
		}{"+Inf", b.Count})
	}
	type plain BucketCount
	return json.Marshal(plain(b))
}

// UnmarshalJSON accepts both numeric bounds and the "+Inf" overflow string.
func (b *BucketCount) UnmarshalJSON(data []byte) error {
	var raw struct {
		UpperBound json.RawMessage `json:"le"`
		Count      uint64          `json:"count"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	b.Count = raw.Count
	var f float64
	if err := json.Unmarshal(raw.UpperBound, &f); err == nil {
		b.UpperBound = f
		return nil
	}
	var s string
	if err := json.Unmarshal(raw.UpperBound, &s); err != nil || s != "+Inf" {
		return fmt.Errorf("telemetry: bad bucket bound %s", raw.UpperBound)
	}
	b.UpperBound = math.Inf(1)
	return nil
}

// Snapshot returns the current distribution. Empty histograms report zeros.
func (h *Histogram) Snapshot() HistogramSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistogramSnapshot{Count: h.count, Sum: h.sum}
	if h.count == 0 {
		return s
	}
	s.Min = h.min
	s.Max = h.max
	s.Mean = h.sum / float64(h.count)
	cum := uint64(0)
	quantile := func(q float64) float64 {
		target := uint64(math.Ceil(q * float64(h.count)))
		run := uint64(0)
		for i, c := range h.counts {
			run += c
			if run >= target {
				if i < len(h.bounds) {
					return h.bounds[i]
				}
				return h.max
			}
		}
		return h.max
	}
	s.P50, s.P90, s.P99 = quantile(0.50), quantile(0.90), quantile(0.99)
	for i, b := range h.bounds {
		cum += h.counts[i]
		if h.counts[i] > 0 {
			s.Buckets = append(s.Buckets, BucketCount{UpperBound: b, Count: cum})
		}
	}
	if h.counts[len(h.bounds)] > 0 {
		cum += h.counts[len(h.bounds)]
		s.Buckets = append(s.Buckets, BucketCount{UpperBound: math.Inf(1), Count: cum})
	}
	return s
}

// Registry is a named collection of metrics. Lookups create on first use,
// so producers and consumers need no shared declaration site.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if absent.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if absent.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram (default nanosecond-latency
// buckets), creating it if absent.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(nil)
		r.hists[name] = h
	}
	return h
}

// RegistrySnapshot is a point-in-time JSON-marshallable view of every
// metric in a registry.
type RegistrySnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every metric's current value.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	snap := RegistrySnapshot{}
	if len(counters) > 0 {
		snap.Counters = make(map[string]int64, len(counters))
		for k, v := range counters {
			snap.Counters[k] = v.Value()
		}
	}
	if len(gauges) > 0 {
		snap.Gauges = make(map[string]int64, len(gauges))
		for k, v := range gauges {
			snap.Gauges[k] = v.Value()
		}
	}
	if len(hists) > 0 {
		snap.Histograms = make(map[string]HistogramSnapshot, len(hists))
		for k, v := range hists {
			snap.Histograms[k] = v.Snapshot()
		}
	}
	return snap
}

// MarshalJSON serializes the registry as its snapshot, so a Registry can be
// published directly (expvar, HTTP handlers).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// Source is a stats producer that can publish its current values into a
// Registry. core.Stats, chain.PipelineStats, and bench.AbortStats all
// implement it, unifying the per-subsystem structs behind one interface.
type Source interface {
	RecordMetrics(r *Registry)
}
