package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"

	"dmvcc/internal/chain"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/workload"
)

// ConflictsSchema identifies the BENCH_conflicts.json format.
const ConflictsSchema = "dmvcc-bench/conflicts/v1"

// ConflictsConfig parameterizes the conflict-forensics experiment.
type ConflictsConfig struct {
	// Txs is the block size.
	Txs int
	// Blocks is how many consecutive blocks each workload executes and
	// commits (later blocks run against mutated state, which is where
	// same-sender chains and contention actually show up).
	Blocks int
	// Threads is the DMVCC worker count.
	Threads int
	// Seed fixes the workloads.
	Seed int64
	// PerTx keeps the per-transaction audit rows in the report (large).
	PerTx bool
	// Log, when non-nil, is the event log the experiment records into (a live
	// introspection endpoint can then serve the post-mortems as they are
	// produced). When nil each workload gets a private log.
	Log *eventlog.Log
}

// DefaultConflictsConfig is the checked-in reference configuration.
func DefaultConflictsConfig() ConflictsConfig {
	return ConflictsConfig{Txs: 512, Blocks: 2, Threads: 8, Seed: 1}
}

// ConflictsBlock is one executed block's forensic outcome.
type ConflictsBlock struct {
	Number int64 `json:"number"`
	Txs    int   `json:"txs"`
	// Aborts is the scheduler counter (Stats.Aborts); the post-mortem's
	// abort records must account for exactly this many.
	Aborts int64 `json:"aborts"`
	// WastedGas is the scheduler's aggregate (Result.WastedGas); the
	// post-mortem's per-record attribution must sum to exactly this.
	WastedGas  uint64                `json:"wasted_gas"`
	PostMortem *telemetry.PostMortem `json:"post_mortem"`
}

// ConflictsWorkload is one workload's run: per-block post-mortems plus
// totals.
type ConflictsWorkload struct {
	Name string `json:"name"`
	// Deterministic marks the workload whose access sets the C-SAG must
	// predict perfectly (plain transfers): the CI gate asserts
	// mispredicted_txs == 0 on it.
	Deterministic bool             `json:"deterministic"`
	Blocks        []ConflictsBlock `json:"blocks"`

	Aborts          int64  `json:"aborts"`
	RecordedAborts  int    `json:"recorded_aborts"`
	CascadeAborts   int    `json:"cascade_aborts"`
	WastedGas       uint64 `json:"wasted_gas"`
	MispredictedTxs int    `json:"mispredicted_txs"`
}

// ConflictsReport is the machine-readable conflict-forensics report written
// as BENCH_conflicts.json.
type ConflictsReport struct {
	Schema    string              `json:"schema"`
	GoVersion string              `json:"go_version"`
	Threads   int                 `json:"threads"`
	Workloads []ConflictsWorkload `json:"workloads"`
}

// conflictsWorkloads returns the experiment's workload set: plain transfers
// (deterministic access sets — the audit's ground-truth gate), the mainnet
// mix, the skewed high-contention setting, and the ICO-contention mix — the
// ablation's launch-day traffic, heavy in router posts whose target box is a
// runtime-dependent key (Fig. 1), so in-block reroutes make snapshot-based
// C-SAGs stale and actually exercise the abort/cascade machinery the
// forensics explain.
func conflictsWorkloads(cfg ConflictsConfig) []struct {
	name          string
	deterministic bool
	wl            workload.Config
} {
	transfers := workload.DefaultConfig()
	transfers.TxPerBlock = cfg.Txs
	transfers.Seed = cfg.Seed
	transfers.ContractCallFrac = 0 // plain Ether transfers only
	mix := workload.DefaultConfig()
	mix.TxPerBlock = cfg.Txs
	mix.Seed = cfg.Seed
	high := mix.HighContention()
	ico := high
	ico.ERC20Frac, ico.DeFiFrac, ico.NFTFrac = 0.30, 0.15, 0.05 // remainder -> ICO/router
	ico.OracleFrac = 0.20                                       // hot feed overwrites (pure ww)
	return []struct {
		name          string
		deterministic bool
		wl            workload.Config
	}{
		{fmt.Sprintf("transfers-%d", cfg.Txs), true, transfers},
		{fmt.Sprintf("mainnet-mix-%d", cfg.Txs), false, mix},
		{fmt.Sprintf("high-contention-%d", cfg.Txs), false, high},
		{fmt.Sprintf("ico-contention-%d", cfg.Txs), false, ico},
	}
}

// RunConflicts executes every workload under DMVCC with forensics enabled
// and assembles the per-block post-mortems.
func RunConflicts(cfg ConflictsConfig) (*ConflictsReport, error) {
	if cfg.Txs <= 0 {
		cfg.Txs = 512
	}
	if cfg.Blocks <= 0 {
		cfg.Blocks = 2
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	rep := &ConflictsReport{
		Schema:    ConflictsSchema,
		GoVersion: runtime.Version(),
		Threads:   cfg.Threads,
	}
	for _, w := range conflictsWorkloads(cfg) {
		cw, err := runConflictsWorkload(w.name, w.deterministic, w.wl, cfg)
		if err != nil {
			return nil, fmt.Errorf("conflicts %s: %w", w.name, err)
		}
		rep.Workloads = append(rep.Workloads, *cw)
	}
	return rep, nil
}

// runConflictsWorkload executes and commits cfg.Blocks consecutive blocks of
// one workload with the event log armed.
func runConflictsWorkload(name string, deterministic bool, wl workload.Config, cfg ConflictsConfig) (*ConflictsWorkload, error) {
	world, err := workload.BuildWorld(wl)
	if err != nil {
		return nil, err
	}
	events := cfg.Log
	if events == nil {
		events = eventlog.New()
	}
	events.Enable()
	eng := chain.NewEngine(world.DB, world.Registry, cfg.Threads, chain.WithLog(events))

	cw := &ConflictsWorkload{Name: name, Deterministic: deterministic}
	for b := 0; b < cfg.Blocks; b++ {
		blockCtx := world.BlockContext()
		txs := world.NextBlock()
		out, err := eng.Execute(chain.ModeDMVCC, blockCtx, txs)
		if err != nil {
			return nil, err
		}
		if _, err := eng.Commit(out.WriteSet); err != nil {
			return nil, fmt.Errorf("commit block %d: %w", blockCtx.Number, err)
		}
		pm := telemetry.BlockPostMortem(events.Block(int64(blockCtx.Number)))
		if pm != nil && pm.Audit != nil && !cfg.PerTx {
			pm.Audit.PerTx = nil
		}
		cb := ConflictsBlock{
			Number:     int64(blockCtx.Number),
			Txs:        len(txs),
			Aborts:     out.Stats.Aborts,
			WastedGas:  out.WastedGas,
			PostMortem: pm,
		}
		cw.Blocks = append(cw.Blocks, cb)
		cw.Aborts += cb.Aborts
		cw.WastedGas += cb.WastedGas
		if pm != nil {
			cw.RecordedAborts += pm.Aborts
			for _, t := range pm.Cascades {
				cw.CascadeAborts += t.Aborts
			}
			if pm.Audit != nil {
				cw.MispredictedTxs += pm.Audit.MispredictedTxs
			}
		}
	}
	return cw, nil
}

// countNodes walks a cascade tree.
func countNodes(n *telemetry.CascadeNode) int {
	if n == nil {
		return 0
	}
	c := 1
	for _, ch := range n.Children {
		c += countNodes(ch)
	}
	return c
}

// Validate checks the report's structural invariants: every block carries a
// post-mortem with a complete audit; every abort the scheduler counted has
// exactly one forensic record with a cause (key, writer, classification);
// cascade trees account for every record; per-record wasted gas sums to the
// scheduler's WastedGas; and the deterministic workload's C-SAGs predicted
// every actual access (mispredicted_txs == 0).
func (r *ConflictsReport) Validate() error {
	if r.Schema != ConflictsSchema {
		return fmt.Errorf("schema %q != %q", r.Schema, ConflictsSchema)
	}
	if len(r.Workloads) == 0 {
		return fmt.Errorf("no workloads in report")
	}
	sawDeterministic := false
	for _, w := range r.Workloads {
		for _, b := range w.Blocks {
			pm := b.PostMortem
			if pm == nil {
				return fmt.Errorf("%s block %d: no post-mortem", w.Name, b.Number)
			}
			if int64(pm.Aborts) != b.Aborts {
				return fmt.Errorf("%s block %d: %d abort records != %d scheduler aborts",
					w.Name, b.Number, pm.Aborts, b.Aborts)
			}
			treeTotal := 0
			var treeWasted uint64
			for _, t := range pm.Cascades {
				if got := countNodes(t.Root); got != t.Aborts {
					return fmt.Errorf("%s block %d cascade %d: tree has %d nodes, claims %d",
						w.Name, b.Number, t.ID, got, t.Aborts)
				}
				treeTotal += t.Aborts
				treeWasted += t.WastedGas
				if err := validateCascadeNodes(w.Name, b.Number, t.Root); err != nil {
					return err
				}
			}
			if treeTotal != pm.Aborts {
				return fmt.Errorf("%s block %d: cascade trees cover %d of %d aborts",
					w.Name, b.Number, treeTotal, pm.Aborts)
			}
			if treeWasted != pm.WastedGas || pm.WastedGas != b.WastedGas {
				return fmt.Errorf("%s block %d: wasted gas attribution %d (trees) / %d (records) != %d (scheduler)",
					w.Name, b.Number, treeWasted, pm.WastedGas, b.WastedGas)
			}
			a := pm.Audit
			if a == nil {
				return fmt.Errorf("%s block %d: no C-SAG audit", w.Name, b.Number)
			}
			if a.Txs != b.Txs {
				return fmt.Errorf("%s block %d: audit covers %d of %d txs", w.Name, b.Number, a.Txs, b.Txs)
			}
		}
		if w.Deterministic {
			sawDeterministic = true
			if w.MispredictedTxs != 0 {
				return fmt.Errorf("%s: %d mispredicted txs on the deterministic workload",
					w.Name, w.MispredictedTxs)
			}
		}
	}
	if !sawDeterministic {
		return fmt.Errorf("no deterministic workload in report")
	}
	return nil
}

// validateCascadeNodes checks that every abort record carries a full cause.
func validateCascadeNodes(wl string, block int64, n *telemetry.CascadeNode) error {
	if n == nil {
		return nil
	}
	if n.Class.String() == "unknown" {
		return fmt.Errorf("%s block %d: abort of tx%d/inc%d has no classification", wl, block, n.Tx, n.Inc)
	}
	if n.ItemLabel == "" {
		return fmt.Errorf("%s block %d: abort of tx%d/inc%d names no stale-read key", wl, block, n.Tx, n.Inc)
	}
	if n.CauseTx < 0 {
		return fmt.Errorf("%s block %d: abort of tx%d/inc%d names no writer", wl, block, n.Tx, n.Inc)
	}
	for _, ch := range n.Children {
		if err := validateCascadeNodes(wl, block, ch); err != nil {
			return err
		}
	}
	return nil
}

// Render formats the report for terminal output: per-workload totals plus
// the full post-mortem of the most contended block.
func (r *ConflictsReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Conflict forensics (%d threads)\n", r.Threads)
	var worst *ConflictsBlock
	var worstWl string
	for i := range r.Workloads {
		w := &r.Workloads[i]
		det := ""
		if w.Deterministic {
			det = " [deterministic]"
		}
		fmt.Fprintf(&sb, "  %-24s%s %d blocks: %d aborts (%d recorded, %d in cascades), %d wasted gas, %d mispredicted txs\n",
			w.Name, det, len(w.Blocks), w.Aborts, w.RecordedAborts, w.CascadeAborts, w.WastedGas, w.MispredictedTxs)
		for j := range w.Blocks {
			b := &w.Blocks[j]
			if worst == nil || b.Aborts > worst.Aborts {
				worst, worstWl = b, w.Name
			}
		}
	}
	if worst != nil && worst.PostMortem != nil {
		fmt.Fprintf(&sb, "\nMost contended block (%s):\n", worstWl)
		sb.WriteString(worst.PostMortem.Render())
	}
	return sb.String()
}

// WriteJSON persists the report.
func (r *ConflictsReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
