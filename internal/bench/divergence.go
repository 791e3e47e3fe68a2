package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"dmvcc/internal/baseline"
	"dmvcc/internal/chain"
	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/evm"
	"dmvcc/internal/fault"
	"dmvcc/internal/replay"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

// DivergenceRunSchema identifies the BENCH_divergence.json format.
const DivergenceRunSchema = "dmvcc-bench/divergence/v1"

// DivergenceConfig parameterizes the divergence hunt: fault-injected DMVCC
// blocks with the event log armed, each diffed against a serial twin.
// On the first diverging block the capture is written to disk, audited down
// to the first divergent transaction, and greedily shrunk to a minimal
// repro. On a clean run the last recorded block is round-tripped through
// the deterministic replayer as a self-check.
type DivergenceConfig struct {
	// Blocks is the soak length across the hunted fault classes.
	Blocks int
	// Txs is the block size.
	Txs int
	// Threads is the DMVCC worker parallelism during recording.
	Threads int
	// Seed derives the workload streams and per-class injector seeds.
	Seed int64
	// OutDir receives the capture / report / minimized-repro artifacts
	// (default: current directory).
	OutDir string
	// Metrics, when non-nil, receives core.divergence_blocks and the
	// recorder's counters.
	Metrics *telemetry.Registry
	// Store, when non-nil, receives divergence reports for the
	// /telemetry/divergence/<n> endpoint.
	Store *telemetry.DivergenceStore
}

// RoundTrip is the record→replay self-check result of one block.
type RoundTrip struct {
	Class         string `json:"class"`
	Block         int    `json:"block"`
	Events        int    `json:"events"`
	Faithful      bool   `json:"faithful"`
	RootMatch     bool   `json:"root_match"`
	StatsMatch    bool   `json:"stats_match"`
	ScheduleMatch bool   `json:"schedule_match"`
	Note          string `json:"note,omitempty"`
}

// Passed reports whether the forced replay reproduced the capture exactly.
func (rt *RoundTrip) Passed() bool {
	return rt != nil && rt.Faithful && rt.RootMatch && rt.StatsMatch && rt.ScheduleMatch
}

// DivergenceRun is the machine-readable result written as
// BENCH_divergence.json.
type DivergenceRun struct {
	Schema     string `json:"schema"`
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Threads    int    `json:"threads"`
	Blocks     int    `json:"blocks"`
	Txs        int    `json:"txs"`
	Seed       int64  `json:"seed"`

	// BlocksRun counts blocks actually soaked (the hunt stops at the first
	// divergence).
	BlocksRun int  `json:"blocks_run"`
	Diverged  bool `json:"diverged"`
	// Class/Block locate the diverging block when Diverged.
	Class string `json:"class,omitempty"`
	Block int    `json:"block,omitempty"`

	Report        *replay.DivergenceReport `json:"report,omitempty"`
	ShrinkReplays int                      `json:"shrink_replays,omitempty"`
	MinimizedTxs  []int                    `json:"minimized_txs,omitempty"`
	CaptureFile   string                   `json:"capture_file,omitempty"`
	MinimizedFile string                   `json:"minimized_file,omitempty"`
	ReportFile    string                   `json:"report_file,omitempty"`

	// RoundTrip is the forced-replay self-check performed when the soak
	// found no divergence (acceptance criterion (b)).
	RoundTrip *RoundTrip `json:"round_trip,omitempty"`
}

// divergenceClasses picks the fault classes the multicore failure was
// reported under (worker panics and C-SAG corruption on the reference trie
// backend) out of the chaos matrix.
func divergenceClasses() []chaosClass {
	var out []chaosClass
	for _, c := range chaosClasses() {
		if c.name == "panic" || c.name == "csag-corruption" {
			c.backend = "" // the reference trie DB, where the race was seen
			out = append(out, c)
		}
	}
	return out
}

// divInjector builds the injector of one recorded or replayed block. The
// seed depends only on (workload seed, class index), and the stateless
// per-(point, block, tx) draws make the fault schedule a pure function of
// it — so a replay, even of a shrunk transaction subset (Keep remaps the
// positional indices back to the original ones), redraws the identical
// faults.
func divInjector(rec replay.Recipe, cl chaosClass) *fault.Injector {
	in := fault.New(fault.Config{
		Seed:  rec.Seed + 1000*int64(rec.ClassIdx),
		Rates: cl.rates,
		Delay: cl.delay,
	})
	if rec.Keep != nil {
		in.SetTxMap(rec.Keep)
	}
	return in
}

// mergeSets folds per-transaction serial write sets into one block write
// set (later transactions take precedence).
func mergeSets(sets []*baseline.TxSets) *state.WriteSet {
	ws := state.NewWriteSet()
	for _, s := range sets {
		if s.Changes != nil {
			ws.Merge(s.Changes)
		}
	}
	return ws
}

// subsetTxs selects the kept transactions (nil keep = all).
func subsetTxs(txs []*types.Transaction, keep []int) []*types.Transaction {
	if keep == nil {
		return txs
	}
	out := make([]*types.Transaction, 0, len(keep))
	for _, i := range keep {
		out = append(out, txs[i])
	}
	return out
}

// divTarget is a pair of twin worlds advanced to one block's pre-state,
// plus that block's context and transactions. Executions against it never
// commit, so one target serves arbitrarily many shrink / replay attempts.
type divTarget struct {
	serialW *workload.World
	chaosW  *workload.World
	ctx     evm.BlockContext
	txs     []*types.Transaction
}

// buildDivTarget regenerates the twin worlds from the recipe and serially
// advances both through the recipe's earlier blocks. Those blocks matched
// the serial root when recorded, so committing the serial write sets into
// both worlds reproduces the exact pre-state of the target block.
func buildDivTarget(rec replay.Recipe) (*divTarget, error) {
	wl := chaosWorkload(ChaosConfig{Txs: rec.Txs, Seed: rec.Seed})
	serialW, err := workload.BuildWorld(wl)
	if err != nil {
		return nil, err
	}
	chaosW, err := workload.BuildWorld(wl)
	if err != nil {
		return nil, err
	}
	for b := 0; b < rec.Block; b++ {
		ctx := serialW.BlockContext()
		txs := serialW.NextBlock()
		chaosW.NextBlock()
		sets, err := baseline.OracleSets(serialW.DB, ctx, txs)
		if err != nil {
			return nil, fmt.Errorf("pre-block %d: %w", b, err)
		}
		ws := mergeSets(sets)
		if _, err := serialW.DB.Commit(ws); err != nil {
			return nil, fmt.Errorf("pre-block %d serial commit: %w", b, err)
		}
		if _, err := chaosW.DB.Commit(ws); err != nil {
			return nil, fmt.Errorf("pre-block %d twin commit: %w", b, err)
		}
	}
	ctx := serialW.BlockContext()
	txs := serialW.NextBlock()
	chaosW.NextBlock()
	return &divTarget{serialW: serialW, chaosW: chaosW, ctx: ctx, txs: txs}, nil
}

// preValue reads one item's value in the target's pre-state.
func (t *divTarget) preValue(id sag.ItemID) u256.Int {
	switch id.Kind {
	case sag.KindBalance:
		return t.chaosW.DB.Balance(id.Addr)
	case sag.KindNonce:
		return u256.NewUint64(t.chaosW.DB.Nonce(id.Addr))
	case sag.KindStorage:
		return t.chaosW.DB.Storage(id.Addr, id.Slot)
	}
	return u256.Int{}
}

// execTarget runs the target block (restricted to rec.Keep) through a fresh
// fault-injected DMVCC engine without committing. gate non-nil forces a
// recorded interleaving (replay mode: one worker slot per transaction so a
// gated wait can never starve the transaction whose event is at the log
// head, and the stall watchdog off — the sequencer has its own recovery).
func execTarget(t *divTarget, cl chaosClass, rec replay.Recipe,
	events *eventlog.Log, gate core.Gate, threads int) (*chain.ExecOut, error) {

	txs := subsetTxs(t.txs, rec.Keep)
	hard := cl.hard
	if gate != nil {
		threads = len(txs)
		hard = core.Hardening{StallTimeout: -1}
	}
	opts := []chain.EngineOption{chain.WithFaults(divInjector(rec, cl)), chain.WithHardening(hard), chain.WithLog(events)}
	if gate != nil {
		opts = append(opts, chain.WithGate(gate))
	}
	eng := chain.NewEngine(t.chaosW.DB, t.chaosW.Registry, threads, opts...)
	return eng.Execute(chain.ModeDMVCC, t.ctx, txs)
}

// serialTarget executes the (restricted) target block serially, recording
// exact per-transaction access sets — the audit's twin.
func serialTarget(t *divTarget, keep []int) ([]*baseline.TxSets, error) {
	return baseline.OracleSets(t.serialW.DB, t.ctx, subsetTxs(t.txs, keep))
}

// postDiverged compares the two executions' effective post-states without
// committing: over the union of written items, an item's post value is its
// write-set value or, absent, its pre-state value — exactly the commit
// semantics, so inequality here is root inequality.
func (t *divTarget) postDiverged(serialWS, parallelWS *state.WriteSet) bool {
	itemPost := func(ws *state.WriteSet, id sag.ItemID) u256.Int {
		if v, ok := wsItemValue(ws, id); ok {
			return v
		}
		return t.preValue(id)
	}
	seen := make(map[sag.ItemID]struct{})
	items := func(ws *state.WriteSet) []sag.ItemID {
		var ids []sag.ItemID
		for addr := range ws.Balances {
			ids = append(ids, sag.BalanceItem(addr))
		}
		for addr := range ws.Nonces {
			ids = append(ids, sag.NonceItem(addr))
		}
		for addr, slots := range ws.Storage {
			for slot := range slots {
				ids = append(ids, sag.StorageItem(addr, slot))
			}
		}
		return ids
	}
	for _, ws := range []*state.WriteSet{serialWS, parallelWS} {
		for _, id := range items(ws) {
			if _, ok := seen[id]; ok {
				continue
			}
			seen[id] = struct{}{}
			a := itemPost(serialWS, id)
			b := itemPost(parallelWS, id)
			if !a.Eq(&b) {
				return true
			}
		}
	}
	// Deployed code differs only if a deployment raced; compare directly.
	codeOf := func(ws *state.WriteSet, addr types.Address) []byte {
		if c, ok := ws.Codes[addr]; ok {
			return c
		}
		return t.chaosW.DB.Code(addr)
	}
	for _, ws := range []*state.WriteSet{serialWS, parallelWS} {
		for addr := range ws.Codes {
			if !bytes.Equal(codeOf(serialWS, addr), codeOf(parallelWS, addr)) {
				return true
			}
		}
	}
	return false
}

// wsItemValue mirrors the audit's write-set lookup for scalar items.
func wsItemValue(ws *state.WriteSet, id sag.ItemID) (u256.Int, bool) {
	switch id.Kind {
	case sag.KindBalance:
		v, ok := ws.Balances[id.Addr]
		return v, ok
	case sag.KindNonce:
		v, ok := ws.Nonces[id.Addr]
		return u256.NewUint64(v), ok
	case sag.KindStorage:
		if m, ok := ws.Storage[id.Addr]; ok {
			v, ok := m[id.Slot]
			return v, ok
		}
	}
	return u256.Int{}, false
}

// shrinkAttempts is how many times each shrink candidate is re-executed:
// divergence is a physical race, so one quiet run does not prove a subset
// innocent.
const shrinkAttempts = 2

// shrinkDiverging minimizes a diverging block to a 1-minimal transaction
// subset, re-executing candidate subsets (fresh nondeterministic runs, same
// deterministic faults via the positional tx remap) against the reusable
// uncommitted target.
func shrinkDiverging(t *divTarget, cl chaosClass, rec replay.Recipe, threads int) (keep []int, replays int) {
	return replay.Shrink(len(t.txs), func(cand []int) (bool, error) {
		sub := rec
		sub.Keep = cand
		sets, err := serialTarget(t, cand)
		if err != nil {
			return false, err
		}
		serialWS := mergeSets(sets)
		for a := 0; a < shrinkAttempts; a++ {
			out, err := execTarget(t, cl, sub, nil, nil, threads)
			if err != nil {
				return false, err
			}
			if out.Stats.Degraded {
				continue // serial fallback: tells us nothing about the race
			}
			if t.postDiverged(serialWS, out.WriteSet) {
				return true, nil
			}
		}
		return false, nil
	})
}

// RunDivergenceRecord hunts for a multicore divergence with the flight
// recorder armed: for each hunted fault class, twin seeded worlds advance
// block by block — serial twin committed from oracle sets, chaos world
// through a recorded fault-injected DMVCC engine — until a block's
// committed state diverges from the serial root. That block's capture is
// written to OutDir, audited against the serial twin's per-transaction
// sets, and shrunk to a minimal repro (also written, replayable via
// -replay). A clean soak instead round-trips the last recorded block
// through the forced replayer (acceptance that the recorded interleaving is
// actually forced) and reports that self-check.
func RunDivergenceRecord(cfg DivergenceConfig) (*DivergenceRun, error) {
	if cfg.Blocks <= 0 {
		cfg.Blocks = 40
	}
	if cfg.Txs <= 0 {
		cfg.Txs = 64
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 8
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.OutDir == "" {
		cfg.OutDir = "."
	}
	classes := divergenceClasses()
	res := &DivergenceRun{
		Schema:     DivergenceRunSchema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Threads:    cfg.Threads,
		Blocks:     cfg.Blocks,
		Txs:        cfg.Txs,
		Seed:       cfg.Seed,
	}
	recorder := eventlog.New()
	recorder.Enable()

	// lastClean remembers the most recent cleanly-recorded block for the
	// round-trip self-check of a divergence-free soak.
	type cleanCapture struct {
		recipe replay.Recipe
		class  chaosClass
		events []eventlog.Event
		stats  core.Stats
		root   types.Hash
	}
	var lastClean *cleanCapture

	per := cfg.Blocks / len(classes)
	extra := cfg.Blocks % len(classes)
	for ci, cl := range classes {
		blocks := per
		if ci < extra {
			blocks++
		}
		if blocks == 0 {
			continue
		}
		wl := chaosWorkload(ChaosConfig{Txs: cfg.Txs, Seed: cfg.Seed})
		serialW, err := workload.BuildWorld(wl)
		if err != nil {
			return nil, err
		}
		chaosW, err := workload.BuildWorld(wl)
		if err != nil {
			return nil, err
		}
		rec := replay.Recipe{Seed: cfg.Seed, Txs: cfg.Txs, Class: cl.name, ClassIdx: ci, Backend: "trie"}
		chaosEng := chain.NewEngine(chaosW.DB, chaosW.Registry, cfg.Threads,
			chain.WithFaults(divInjector(rec, cl)),
			chain.WithHardening(cl.hard),
			chain.WithLog(recorder),
			chain.WithMetrics(cfg.Metrics))

		for b := 0; b < blocks; b++ {
			rec.Block = b
			ctx := serialW.BlockContext()
			txs := serialW.NextBlock()
			chaosW.NextBlock()

			// Serial twin: oracle sets (the audit's ground truth), committed
			// as the block's reference root.
			sets, err := baseline.OracleSets(serialW.DB, ctx, txs)
			if err != nil {
				return nil, fmt.Errorf("block %d serial: %w", b, err)
			}
			serialWS := mergeSets(sets)

			out, err := chaosEng.Execute(chain.ModeDMVCC, ctx, txs)
			if err != nil {
				return nil, fmt.Errorf("block %d dmvcc: %w", b, err)
			}
			res.BlocksRun++

			// Divergence check against the uncommitted pre-state (exact
			// commit semantics; see postDiverged), then commit both worlds.
			t := &divTarget{serialW: serialW, chaosW: chaosW, ctx: ctx, txs: txs}
			diverged := t.postDiverged(serialWS, out.WriteSet)
			serialRoot, err := serialW.DB.Commit(serialWS)
			if err != nil {
				return nil, fmt.Errorf("block %d serial commit: %w", b, err)
			}
			parallelRoot, err := chaosW.DB.Commit(out.WriteSet)
			if err != nil {
				return nil, fmt.Errorf("block %d commit: %w", b, err)
			}
			if !diverged && serialRoot != parallelRoot {
				// Should be unreachable: postDiverged models commit exactly.
				diverged = true
			}

			if !diverged {
				if !out.Stats.Degraded {
					lastClean = &cleanCapture{recipe: rec, class: cl,
						events: recorder.Events(int64(ctx.Number)), stats: out.Stats, root: parallelRoot}
				}
				continue
			}

			// Diverging block found: capture, audit, shrink.
			res.Diverged = true
			res.Class = cl.name
			res.Block = b
			if cfg.Metrics != nil {
				cfg.Metrics.Counter("core.divergence_blocks").Inc()
			}
			events := recorder.Events(int64(ctx.Number))
			cap := &replay.Capture{
				Schema:       replay.CaptureSchema,
				Recipe:       rec,
				Threads:      cfg.Threads,
				GoMaxProcs:   runtime.GOMAXPROCS(0),
				SerialRoot:   serialRoot.Hex(),
				ParallelRoot: parallelRoot.Hex(),
				Stats:        out.Stats,
				Events:       eventlog.EncodeEvents(events),
			}
			res.CaptureFile = filepath.Join(cfg.OutDir, "BENCH_divergence_capture.json")
			if err := cap.WriteFile(res.CaptureFile); err != nil {
				return nil, err
			}

			// Audit needs the pre-block state: rebuild the target (the live
			// worlds just committed past it).
			at, err := buildDivTarget(rec)
			if err != nil {
				return nil, fmt.Errorf("rebuild target: %w", err)
			}
			report := replay.Audit(events, out.Receipts, sets, at.preValue, out.WriteSet)
			report.Recipe = rec
			report.SerialRoot = serialRoot.Hex()
			report.ParallelRoot = parallelRoot.Hex()
			report.CaptureFile = res.CaptureFile

			keep, replays := shrinkDiverging(at, cl, rec, cfg.Threads)
			res.ShrinkReplays = replays
			if len(keep) < len(txs) {
				res.MinimizedTxs = keep
				report.MinimizedTxs = keep
				minRec := rec
				minRec.Keep = keep
				// Record the minimized repro's own schedule so -replay can
				// force it.
				minRecorder := eventlog.New()
				minRecorder.Enable()
				minOut, err := execTarget(at, cl, minRec, minRecorder, nil, cfg.Threads)
				if err == nil {
					minCap := &replay.Capture{
						Schema:     replay.CaptureSchema,
						Recipe:     minRec,
						Threads:    cfg.Threads,
						GoMaxProcs: runtime.GOMAXPROCS(0),
						Stats:      minOut.Stats,
						Events:     eventlog.EncodeEvents(minRecorder.Events(int64(at.ctx.Number))),
					}
					res.MinimizedFile = filepath.Join(cfg.OutDir, "BENCH_divergence_minimized.json")
					if err := minCap.WriteFile(res.MinimizedFile); err != nil {
						return nil, err
					}
				}
			}

			res.Report = report
			res.ReportFile = filepath.Join(cfg.OutDir, "BENCH_divergence_report.json")
			if data, err := json.MarshalIndent(report, "", "  "); err == nil {
				if err := os.WriteFile(res.ReportFile, append(data, '\n'), 0o644); err != nil {
					return nil, err
				}
			}
			if cfg.Store != nil {
				cfg.Store.Put(int64(ctx.Number), report)
			}
			return res, nil
		}
	}

	// Clean soak: prove the replayer actually forces recorded interleavings
	// by round-tripping the last recorded block (criterion (b)).
	if lastClean == nil {
		return res, nil
	}
	rt, err := roundTripCapture(lastClean.recipe, lastClean.class,
		lastClean.events, lastClean.stats, lastClean.root)
	if err != nil {
		return nil, fmt.Errorf("round-trip self-check: %w", err)
	}
	res.RoundTrip = rt
	// Persist the clean capture too, so -replay is exercisable (and the
	// forcing independently re-checkable) without waiting for a divergence.
	cap := &replay.Capture{
		Schema:       replay.CaptureSchema,
		Recipe:       lastClean.recipe,
		Threads:      cfg.Threads,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		SerialRoot:   lastClean.root.Hex(),
		ParallelRoot: lastClean.root.Hex(),
		Stats:        lastClean.stats,
		Events:       eventlog.EncodeEvents(lastClean.events),
	}
	res.CaptureFile = filepath.Join(cfg.OutDir, "BENCH_divergence_capture.json")
	if err := cap.WriteFile(res.CaptureFile); err != nil {
		return nil, err
	}
	return res, nil
}

// roundTripCapture re-executes a recorded block under the forced
// interleaving and checks the replay reproduced it: same committed root,
// same deterministic stats, same per-transaction schedule, no skipped or
// abandoned events.
func roundTripCapture(rec replay.Recipe, cl chaosClass,
	events []eventlog.Event, stats core.Stats, root types.Hash) (*RoundTrip, error) {

	t, err := buildDivTarget(rec)
	if err != nil {
		return nil, err
	}
	seq := replay.NewSequencer(events)
	seq.Start()
	replayRec := eventlog.New()
	replayRec.Enable()
	out, err := execTarget(t, cl, rec, replayRec, seq, 0)
	seq.Stop()
	if err != nil {
		return nil, err
	}
	replayRoot, err := t.chaosW.DB.Commit(out.WriteSet)
	if err != nil {
		return nil, err
	}
	rt := &RoundTrip{
		Class:     rec.Class,
		Block:     rec.Block,
		Events:    len(events),
		Faithful:  seq.Faithful(),
		RootMatch: replayRoot == root,
		StatsMatch: replay.DeterministicStats(out.Stats) ==
			replay.DeterministicStats(stats),
	}
	firstDiff, why := replay.CompareSchedules(events, replayRec.Events(int64(t.ctx.Number)))
	rt.ScheduleMatch = firstDiff == -1
	if !rt.Faithful {
		rt.Note = fmt.Sprintf("sequencer skipped %d of %d events", seq.Skipped(), len(events))
		if fs := seq.FirstSkip(); fs != nil {
			rt.Note += fmt.Sprintf("; first refusal: %s tx %d inc %d", fs.Op, fs.Tx, fs.Inc)
		}
	} else if !rt.ScheduleMatch {
		rt.Note = fmt.Sprintf("schedule differs at tx %d: %s", firstDiff, why)
	}
	return rt, nil
}

// RunDivergenceReplay deterministically re-executes a capture file: the
// twin worlds are regenerated from the recipe, the recorded interleaving is
// forced back via the sequencer, and the result is audited against the
// serial twin. The returned run reports whether the divergence reproduced
// and whether the forcing was faithful.
func RunDivergenceReplay(path string, cfg DivergenceConfig) (*DivergenceRun, error) {
	cap, err := replay.ReadCapture(path)
	if err != nil {
		return nil, err
	}
	if err := cap.Replayable(); err != nil {
		return nil, err
	}
	events, err := cap.DecodedEvents()
	if err != nil {
		return nil, err
	}
	var cl chaosClass
	found := false
	for _, c := range divergenceClasses() {
		if c.name == cap.Recipe.Class {
			cl, found = c, true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("capture class %q is not a divergence class", cap.Recipe.Class)
	}
	res := &DivergenceRun{
		Schema:     DivergenceRunSchema,
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Threads:    cap.Threads,
		Txs:        cap.Recipe.Txs,
		Seed:       cap.Recipe.Seed,
		Class:      cap.Recipe.Class,
		Block:      cap.Recipe.Block,
	}
	t, err := buildDivTarget(cap.Recipe)
	if err != nil {
		return nil, err
	}
	sets, err := serialTarget(t, cap.Recipe.Keep)
	if err != nil {
		return nil, err
	}
	serialWS := mergeSets(sets)

	seq := replay.NewSequencer(events)
	seq.Start()
	replayRec := eventlog.New()
	replayRec.Enable()
	out, err := execTarget(t, cl, cap.Recipe, replayRec, seq, 0)
	seq.Stop()
	if err != nil {
		return nil, err
	}
	res.BlocksRun = 1
	res.Diverged = t.postDiverged(serialWS, out.WriteSet)
	rt := &RoundTrip{
		Class:    cap.Recipe.Class,
		Block:    cap.Recipe.Block,
		Events:   len(events),
		Faithful: seq.Faithful(),
		StatsMatch: replay.DeterministicStats(out.Stats) ==
			replay.DeterministicStats(cap.Stats),
	}
	// Committing the replay's write set is safe here: the target worlds are
	// throwaways and no further execution follows.
	replayRoot, err := t.chaosW.DB.Commit(out.WriteSet)
	if err != nil {
		return nil, err
	}
	rt.RootMatch = cap.ParallelRoot == "" || replayRoot.Hex() == cap.ParallelRoot
	firstDiff, why := replay.CompareSchedules(events, replayRec.Events(int64(t.ctx.Number)))
	rt.ScheduleMatch = firstDiff == -1
	if !rt.ScheduleMatch {
		rt.Note = fmt.Sprintf("schedule differs at tx %d: %s", firstDiff, why)
	}
	res.RoundTrip = rt
	if res.Diverged {
		report := replay.Audit(replayRec.Events(int64(t.ctx.Number)), out.Receipts, sets, t.preValue, out.WriteSet)
		report.Recipe = cap.Recipe
		report.CaptureFile = path
		res.Report = report
		if cfg.Metrics != nil {
			cfg.Metrics.Counter("core.divergence_blocks").Inc()
		}
		if cfg.Store != nil {
			cfg.Store.Put(int64(t.ctx.Number), report)
		}
	}
	return res, nil
}

// Render summarizes the run for the terminal.
func (r *DivergenceRun) Render() string {
	s := fmt.Sprintf("== divergence: %d blocks x %d txs, %d threads, GOMAXPROCS=%d (seed %d) ==\n",
		r.Blocks, r.Txs, r.Threads, r.GoMaxProcs, r.Seed)
	if r.Diverged {
		s += fmt.Sprintf("DIVERGED at class %s block %d (soaked %d blocks)\n", r.Class, r.Block, r.BlocksRun)
		if rep := r.Report; rep != nil {
			s += fmt.Sprintf("first divergent tx: %d (%d mismatches, %d events)\n",
				rep.FirstDivergentTx, len(rep.Mismatches), rep.Events)
			for i, m := range rep.Mismatches {
				if i == 8 {
					s += fmt.Sprintf("  ... %d more\n", len(rep.Mismatches)-i)
					break
				}
				s += fmt.Sprintf("  tx %d %s %s: got %s want %s\n", m.Tx, m.Kind, m.Item, m.Got, m.Want)
			}
		}
		if len(r.MinimizedTxs) > 0 {
			s += fmt.Sprintf("minimized to %d txs %v (%d shrink replays)\n",
				len(r.MinimizedTxs), r.MinimizedTxs, r.ShrinkReplays)
		} else if r.ShrinkReplays > 0 {
			s += fmt.Sprintf("shrink could not reduce the block (%d replays)\n", r.ShrinkReplays)
		}
		if r.CaptureFile != "" {
			s += fmt.Sprintf("capture: %s", r.CaptureFile)
			if r.MinimizedFile != "" {
				s += fmt.Sprintf("  minimized: %s", r.MinimizedFile)
			}
			s += "\n"
		}
	} else {
		s += fmt.Sprintf("no divergence in %d blocks\n", r.BlocksRun)
	}
	if rt := r.RoundTrip; rt != nil {
		verdict := "FAILED"
		if rt.Passed() {
			verdict = "ok"
		}
		s += fmt.Sprintf("replay round-trip (%s block %d, %d events): %s [faithful=%v root=%v stats=%v schedule=%v]\n",
			rt.Class, rt.Block, rt.Events, verdict, rt.Faithful, rt.RootMatch, rt.StatsMatch, rt.ScheduleMatch)
		if rt.Note != "" {
			s += "  " + rt.Note + "\n"
		}
	}
	return s
}

// WriteJSON persists the run result.
func (r *DivergenceRun) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
