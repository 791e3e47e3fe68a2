package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"dmvcc/internal/chain"
	"dmvcc/internal/core"
	"dmvcc/internal/evm"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
)

// slotKey names one storage slot.
type slotKey struct {
	addr types.Address
	key  types.Hash
}

// staged holds what the traced staged loop collected: per-block samples
// keyed by span name, the spans, and the counters the layers returned.
type staged struct {
	rec *recorder
	// perTx holds ns/tx and perBlock ns samples, one per staged block.
	perTx    map[string][]float64
	perBlock map[string][]float64
	// path is the DMVCC import path per block (analyze + execute at N
	// threads + commit), in ms, for the tracing-overhead ratio.
	path []float64

	txs, blocks     int
	allocs, bytes   uint64
	core            core.Stats // summed over the N-thread executions
	degraded        int        // blocks that fell back to serial
	makespanSpeedup []float64
	dirtyAccounts   int
	dirtySlots      int
	fsyncs, flushed int64
	// slots are the storage slots the staged commits wrote: the read
	// probe's storage key population.
	slots map[slotKey]struct{}
}

// addCore accumulates the scheduler counters of one execution into sum
// (MaxIncarnation as a maximum, Degraded separately as a block count).
func addCore(sum *core.Stats, s core.Stats) {
	sum.Executions += s.Executions
	sum.Aborts += s.Aborts
	sum.BlockedReads += s.BlockedReads
	sum.EarlyPublishes += s.EarlyPublishes
	sum.DeltaPublishes += s.DeltaPublishes
	sum.WakeEvents += s.WakeEvents
	sum.DispatchRuns += s.DispatchRuns
	sum.DispatchedTxs += s.DispatchedTxs
	if s.MaxIncarnation > sum.MaxIncarnation {
		sum.MaxIncarnation = s.MaxIncarnation
	}
}

// durability snapshots the DMVCC world's durability counters (zero for
// in-memory worlds).
func (r *runner) durability() state.DurabilityStats {
	if d, ok := r.p.dmvcc.DB.(interface{ DurabilityStats() state.DurabilityStats }); ok {
		return d.DurabilityStats()
	}
	return state.DurabilityStats{}
}

// stagedLoop takes blocks through every layer one call at a time on the same
// pre-state, timing each call from outside: C-SAG analysis, the bare EVM
// over an overlay, the three baselines, DMVCC at 1 and at N threads with the
// pre-computed C-SAGs, then one commit of the N-thread write set. The serial
// twin imports the same block afterwards, untimed, as the root oracle.
func (r *runner) stagedLoop() (*staged, error) {
	st := &staged{
		rec:      newRecorder(),
		perTx:    map[string][]float64{},
		perBlock: map[string][]float64{},
		slots:    map[slotKey]struct{}{},
	}
	for i := 0; i < r.sz.stagedBlocks; i++ {
		b := r.take(1)[0]
		if err := r.stageBlock(st, b); err != nil {
			r.oracle.fail(1)
			return nil, fmt.Errorf("staged block %d: %w", b.Block.Number, err)
		}
	}
	self := selfTimes(st.rec.spans)
	for i, s := range st.rec.spans {
		if s.Name == "block" {
			st.perBlock["block"] = append(st.perBlock["block"], float64(self[i]))
		}
	}
	return st, nil
}

func (r *runner) stageBlock(st *staged, b chain.BlockInput) error {
	rec := st.rec
	db := r.p.dmvcc.DB
	n := float64(len(b.Txs))
	id := fmt.Sprintf("%s/%d", r.sp.name, b.Block.Number)
	block := rec.begin("block", -1, id)
	defer func() {
		if rec.spans[block].End == 0 {
			rec.end(block)
		}
	}()
	// stage times one call as a child span of the block and files its
	// per-transaction cost under the span's name.
	stage := func(name string, call func() error) (time.Duration, error) {
		s := rec.begin(name, block, id)
		err := call()
		dur := rec.end(s)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		st.perTx[name] = append(st.perTx[name], float64(dur)/n)
		return dur, nil
	}

	var csags []*sag.CSAG
	analyzeDur, err := stage("sag.analyze", func() (e error) {
		csags, e = r.dmvcc.Analyzer().AnalyzeBlock(b.Txs, db, b.Block)
		return e
	})
	if err != nil {
		return err
	}
	if _, err := stage("evm.apply", func() error {
		vm := state.NewVMAdapter(state.NewOverlay(db))
		for j, tx := range b.Txs {
			if _, e := evm.ApplyTransaction(vm, b.Block, tx, j, nil); e != nil {
				return e
			}
		}
		return nil
	}); err != nil {
		return err
	}

	var serialOut *chain.ExecOut
	for _, mode := range []chain.Mode{chain.ModeSerial, chain.ModeDAG, chain.ModeOCC} {
		var out *chain.ExecOut
		if _, err := stage("baseline."+string(mode)+".execute", func() (e error) {
			out, e = r.dmvcc.ExecuteWith(mode, b.Block, b.Txs, nil)
			return e
		}); err != nil {
			return err
		}
		if mode == chain.ModeSerial {
			serialOut = out
		}
	}

	// DMVCC at one thread, with the allocations of exactly this call.
	var before, after runtime.MemStats
	r.dmvcc.SetThreads(1)
	runtime.ReadMemStats(&before)
	_, err = stage("core.execute.t1", func() error {
		_, e := r.dmvcc.ExecuteWith(chain.ModeDMVCC, b.Block, b.Txs, csags)
		return e
	})
	runtime.ReadMemStats(&after)
	r.dmvcc.SetThreads(r.threads)
	if err != nil {
		return err
	}
	st.allocs += after.Mallocs - before.Mallocs
	st.bytes += after.TotalAlloc - before.TotalAlloc

	var out *chain.ExecOut
	execDur, err := stage("core.execute.tN", func() (e error) {
		out, e = r.dmvcc.ExecuteWith(chain.ModeDMVCC, b.Block, b.Txs, csags)
		return e
	})
	if err != nil {
		return err
	}
	addCore(&st.core, out.Stats)
	if out.Stats.Degraded {
		st.degraded++
	}
	serialSpan, err := serialOut.Makespan(chain.ModeSerial, r.threads)
	if err != nil {
		return err
	}
	dmvccSpan, err := out.Makespan(chain.ModeDMVCC, r.threads)
	if err != nil {
		return err
	}
	if dmvccSpan > 0 {
		st.makespanSpeedup = append(st.makespanSpeedup, float64(serialSpan)/float64(dmvccSpan))
	}

	// Commit: the call returns once the flat state is applied; the result
	// arrives once the tries are hashed and the logs are synced.
	durBefore := r.durability()
	commit := rec.begin("state.commit", block, id)
	commitStart := rec.spans[commit].Start
	ch := r.dmvcc.CommitAsync(out.WriteSet)
	applied := time.Since(rec.t0)
	res := <-ch
	commitDur := rec.end(commit)
	rec.end(block)
	if res.Err != nil {
		return fmt.Errorf("state.commit: %w", res.Err)
	}
	durAfter := r.durability()
	// The backend reports its phases as durations; lay them out in the order
	// it runs them: flat apply inside the call, then storage tries, account
	// trie and log sync on the committer.
	cs := res.Stats
	rec.add("state.flat", commit, commitStart, time.Duration(cs.FlatNs))
	at := rec.add("trie.storage", commit, applied, time.Duration(cs.StorageNs))
	at = rec.add("trie.account", commit, at, time.Duration(cs.AccountNs))
	rec.add("kvdisk.sync", commit, at, time.Duration(cs.SyncNs))

	for name, v := range map[string]float64{
		"state.commit_apply": float64(applied - commitStart),
		"state.commit_total": float64(commitDur),
		"state.flat":         float64(cs.FlatNs),
		"trie.storage":       float64(cs.StorageNs),
		"trie.account":       float64(cs.AccountNs),
		"kvdisk.sync":        float64(cs.SyncNs),
	} {
		st.perBlock[name] = append(st.perBlock[name], v)
	}
	st.dirtyAccounts += cs.DirtyAccounts
	st.dirtySlots += cs.DirtySlots
	st.fsyncs += durAfter.Fsyncs - durBefore.Fsyncs
	st.flushed += durAfter.FlushedBytes - durBefore.FlushedBytes
	st.path = append(st.path, ms(analyzeDur+execDur+commitDur))
	for addr, slots := range out.WriteSet.Storage {
		for key := range slots {
			st.slots[slotKey{addr, key}] = struct{}{}
		}
	}

	_, sRoot, err := r.serial.ExecuteAndCommit(chain.ModeSerial, b.Block, b.Txs)
	if err != nil {
		return fmt.Errorf("serial twin: %w", err)
	}
	r.oracle.check(res.Root, sRoot)
	r.txsCommitted += len(b.Txs)
	st.txs += len(b.Txs)
	st.blocks++
	return nil
}

// readProbe times n seeded point reads against the DMVCC world: balances of
// the accounts the executed blocks named, alternating with the storage slots
// the staged commits wrote where the workload has any.
func (r *runner) readProbe(st *staged, seed int64, n int) float64 {
	addrSet := map[types.Address]struct{}{}
	for _, b := range r.p.blocks[:r.next] {
		for _, tx := range b.Txs {
			addrSet[tx.From] = struct{}{}
			addrSet[tx.To] = struct{}{}
		}
	}
	// Sorted, so the seed alone decides which keys are read.
	addrs := make([]types.Address, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
	slots := make([]slotKey, 0, len(st.slots))
	for s := range st.slots {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool {
		if c := bytes.Compare(slots[i].addr[:], slots[j].addr[:]); c != 0 {
			return c < 0
		}
		return bytes.Compare(slots[i].key[:], slots[j].key[:]) < 0
	})
	rng := rand.New(rand.NewSource(seed))
	db := r.p.dmvcc.DB
	start := time.Now()
	for i := 0; i < n; i++ {
		if len(slots) > 0 && i%2 == 1 {
			s := slots[rng.Intn(len(slots))]
			db.Storage(s.addr, s.key)
		} else {
			db.Balance(addrs[rng.Intn(len(addrs))])
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// ratio returns a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer computes the single-layer metrics of a traced run. latencyP50 is
// the untraced DMVCC import latency measured in the same process.
func (r *runner) perLayer(st *staged, readNs float64, logGrowth int64) map[string]float64 {
	txs, blocks := float64(st.txs), float64(st.blocks)
	nsTx := func(span string) float64 { return median(st.perTx[span]) }
	nsBlock := func(name string) float64 { return median(st.perBlock[name]) }
	serial, t1, tN := nsTx("baseline.serial.execute"), nsTx("core.execute.t1"), nsTx("core.execute.tN")
	makespan := median(st.makespanSpeedup)
	c := st.core
	pipeBlocks := float64(r.pipe.Blocks)
	p90, _ := percentile(r.dmvccLat, 90)

	return map[string]float64{
		"sag.analyze_ns_per_tx":          nsTx("sag.analyze"),
		"evm.apply_ns_per_tx":            nsTx("evm.apply"),
		"baseline.serial.exec_ns_per_tx": serial,
		"baseline.dag.exec_ns_per_tx":    nsTx("baseline.dag.execute"),
		"baseline.occ.exec_ns_per_tx":    nsTx("baseline.occ.execute"),

		"core.exec_ns_per_tx.t1":   t1,
		"core.exec_ns_per_tx.tN":   tN,
		"core.overhead_ratio.t1":   ratio(t1, serial),
		"core.parallel_efficiency": ratio(t1, float64(r.threads)*tN),
		"core.allocs_per_tx":       ratio(float64(st.allocs), txs),
		"core.alloc_bytes_per_tx":  ratio(float64(st.bytes), txs),

		"core.useful_exec_frac":          ratio(txs, float64(c.Executions)),
		"core.aborts_per_block":          ratio(float64(c.Aborts), blocks),
		"core.blocked_reads_per_block":   ratio(float64(c.BlockedReads), blocks),
		"core.early_publishes_per_block": ratio(float64(c.EarlyPublishes), blocks),
		"core.delta_publishes_per_block": ratio(float64(c.DeltaPublishes), blocks),
		"core.wake_events_per_block":     ratio(float64(c.WakeEvents), blocks),
		"core.mean_dispatch_run":         ratio(float64(c.DispatchedTxs), float64(c.DispatchRuns)),
		"core.max_incarnation":           float64(c.MaxIncarnation),
		"core.degraded_blocks":           float64(st.degraded),

		"schedsim.makespan_speedup.tN": makespan,
		"schedsim.model_error.tN":      ratio(makespan, ratio(serial, tN)),

		"chain.pipeline_overlap_frac":       r.pipe.OverlapFraction(),
		"chain.pipeline_stall_ms_per_block": ratio(ms(r.pipe.Stall), pipeBlocks),
		"chain.commit_wait_ms_per_block":    ratio(ms(r.pipe.CommitWait), pipeBlocks),
		"chain.self_ns_per_block":           nsBlock("block"),

		"state.commit_apply_ns_per_block": nsBlock("state.commit_apply"),
		"state.commit_total_ns_per_block": nsBlock("state.commit_total"),
		"state.flat_ns_per_block":         nsBlock("state.flat"),
		"trie.storage_ns_per_block":       nsBlock("trie.storage"),
		"trie.account_ns_per_block":       nsBlock("trie.account"),
		"kvdisk.sync_ns_per_block":        nsBlock("kvdisk.sync"),
		"kvdisk.fsyncs_per_block":         ratio(float64(st.fsyncs), blocks),
		"kvdisk.flushed_bytes_per_block":  ratio(float64(st.flushed), blocks),
		"state.dirty_accounts_per_block":  ratio(float64(st.dirtyAccounts), blocks),
		"state.dirty_slots_per_block":     ratio(float64(st.dirtySlots), blocks),
		"state.read_ns_per_op":            readNs,

		"trace.overhead_frac": ratio(median(st.path), median(r.dmvccLat)) - 1,

		// Demoted from end-to-end. The p90 does not repeat within a tenth
		// between runs of the same code (README.md); the other two are 0 on
		// a healthy in-memory run, and the contract admits no end-to-end
		// metric that can be 0.
		"block_latency_p90_ms": p90,
		"failed_block_frac":    ratio(float64(r.oracle.failed), float64(r.oracle.attempted)),
		"disk_bytes_per_tx":    ratio(float64(logGrowth), float64(r.txsCommitted)),
	}
}
