package main

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits pairs each declared metric with its measured value; a metric the
// run did not produce reports 0.
func withUnits(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.Name] = metric{values[d.Name], d.Unit}
	}
	return out
}

// metricDef declares one reported metric as BENCHMARK.json lists it. Bound
// is the share of the parent's median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a user of the chain sees. The timing bounds sit at
// the issue's 12 % ceiling (10 % for the ratio): ten runs on the 2-core
// reference host spread by 2-6 % between their quartiles (README.md), and a
// bound has to hold three such spreads.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"txs_per_s", "tx/s", "higher", 0.12},
	{"serial_txs_per_s", "tx/s", "higher", 0.12},
	{"speedup_vs_serial", "ratio", "higher", 0.10},
	{"block_latency_p50_ms", "ms", "lower", 0.12},
	{"serial_block_latency_p50_ms", "ms", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.10},
}

// perLayerDefs are the single-layer metrics of the traced run.
var perLayerDefs = []metricDef{
	{Name: "sag.analyze_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "evm.apply_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "baseline.serial.exec_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "baseline.dag.exec_ns_per_tx", Unit: "ns/tx", Better: "lower"},
	{Name: "baseline.occ.exec_ns_per_tx", Unit: "ns/tx", Better: "lower"},

	{Name: "core.exec_ns_per_tx.t1", Unit: "ns/tx", Better: "lower"},
	{Name: "core.exec_ns_per_tx.tN", Unit: "ns/tx", Better: "lower"},
	{Name: "core.overhead_ratio.t1", Unit: "ratio", Better: "lower"},
	{Name: "core.parallel_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "core.allocs_per_tx", Unit: "count/tx", Better: "lower"},
	{Name: "core.alloc_bytes_per_tx", Unit: "B/tx", Better: "lower"},

	{Name: "core.useful_exec_frac", Unit: "fraction", Better: "higher"},
	{Name: "core.aborts_per_block", Unit: "count/block", Better: "lower"},
	{Name: "core.blocked_reads_per_block", Unit: "count/block", Better: "lower"},
	{Name: "core.early_publishes_per_block", Unit: "count/block", Better: "higher"},
	{Name: "core.delta_publishes_per_block", Unit: "count/block", Better: "higher"},
	{Name: "core.wake_events_per_block", Unit: "count/block", Better: "lower"},
	{Name: "core.mean_dispatch_run", Unit: "tx/run", Better: "higher"},
	{Name: "core.max_incarnation", Unit: "count", Better: "lower"},
	{Name: "core.degraded_blocks", Unit: "count", Better: "lower"},

	{Name: "schedsim.makespan_speedup.tN", Unit: "ratio", Better: "higher"},
	{Name: "schedsim.model_error.tN", Unit: "ratio", Better: "lower"},

	{Name: "chain.pipeline_overlap_frac", Unit: "fraction", Better: "higher"},
	{Name: "chain.pipeline_stall_ms_per_block", Unit: "ms/block", Better: "lower"},
	{Name: "chain.commit_wait_ms_per_block", Unit: "ms/block", Better: "lower"},
	{Name: "chain.self_ns_per_block", Unit: "ns/block", Better: "lower"},

	{Name: "state.commit_apply_ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "state.commit_total_ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "state.flat_ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "trie.storage_ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "trie.account_ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "kvdisk.sync_ns_per_block", Unit: "ns/block", Better: "lower"},
	{Name: "kvdisk.fsyncs_per_block", Unit: "count/block", Better: "lower"},
	{Name: "kvdisk.flushed_bytes_per_block", Unit: "B/block", Better: "lower"},
	{Name: "state.dirty_accounts_per_block", Unit: "count/block", Better: "lower"},
	{Name: "state.dirty_slots_per_block", Unit: "count/block", Better: "lower"},
	{Name: "state.read_ns_per_op", Unit: "ns/op", Better: "lower"},

	{Name: "trace.overhead_frac", Unit: "fraction", Better: "lower"},

	{Name: "block_latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "failed_block_frac", Unit: "fraction", Better: "lower"},
	{Name: "disk_bytes_per_tx", Unit: "B/tx", Better: "lower"},
}
