package bench

import (
	"testing"

	"dmvcc/internal/baseline"
	"dmvcc/internal/chain"
	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/replay"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

// TestRoundTripAllModes proves record → replay determinism across every
// scheduler at 1 and 4 threads on a fault-free contended block: twin worlds
// execute the same block twice and must commit byte-identical roots. For
// DMVCC the second run is a genuine forced replay — the recorded
// interleaving is sequenced back event by event — and must additionally
// reproduce the deterministic stats and the per-transaction schedule.
func TestRoundTripAllModes(t *testing.T) {
	for _, threads := range []int{1, 4} {
		for _, mode := range []chain.Mode{chain.ModeSerial, chain.ModeDAG, chain.ModeOCC, chain.ModeDMVCC} {
			mode, threads := mode, threads
			t.Run(string(mode)+"/"+map[int]string{1: "1thread", 4: "4threads"}[threads], func(t *testing.T) {
				wl := chaosWorkload(ChaosConfig{Txs: 48, Seed: 11})
				wA, err := workload.BuildWorld(wl)
				if err != nil {
					t.Fatal(err)
				}
				wB, err := workload.BuildWorld(wl)
				if err != nil {
					t.Fatal(err)
				}
				ctx := wA.BlockContext()
				txs := wA.NextBlock()
				wB.NextBlock()

				recorder := eventlog.New()
				recorder.Enable()
				engA := chain.NewEngine(wA.DB, wA.Registry, threads, chain.WithLog(recorder))
				outA, err := engA.Execute(mode, ctx, txs)
				if err != nil {
					t.Fatal(err)
				}
				rootA, err := wA.DB.Commit(outA.WriteSet)
				if err != nil {
					t.Fatal(err)
				}

				var outB *chain.ExecOut
				if mode == chain.ModeDMVCC {
					events := recorder.Events(int64(ctx.Number))
					if len(events) == 0 {
						t.Fatal("recorder captured no DMVCC events")
					}
					seq := replay.NewSequencer(events)
					seq.Start()
					defer seq.Stop()
					replayRec := eventlog.New()
					replayRec.Enable()
					engB := chain.NewEngine(wB.DB, wB.Registry, len(txs),
						chain.WithGate(seq), chain.WithLog(replayRec),
						chain.WithHardening(core.Hardening{StallTimeout: -1}))
					outB, err = engB.Execute(mode, ctx, txs)
					if err != nil {
						t.Fatal(err)
					}
					seq.Stop()
					if !seq.Faithful() {
						t.Errorf("sequencer skipped %d of %d events", seq.Skipped(), len(events))
					}
					if tx, why := replay.CompareSchedules(events, replayRec.Events(int64(ctx.Number))); tx != -1 {
						t.Errorf("replayed schedule differs at tx %d: %s", tx, why)
					}
					if a, b := replay.DeterministicStats(outA.Stats), replay.DeterministicStats(outB.Stats); a != b {
						t.Errorf("deterministic stats differ: recorded %+v replayed %+v", a, b)
					}
				} else {
					engB := chain.NewEngine(wB.DB, wB.Registry, threads)
					outB, err = engB.Execute(mode, ctx, txs)
					if err != nil {
						t.Fatal(err)
					}
				}
				rootB, err := wB.DB.Commit(outB.WriteSet)
				if err != nil {
					t.Fatal(err)
				}
				if rootA != rootB {
					t.Fatalf("roots differ: %s vs %s", rootA.Hex(), rootB.Hex())
				}
			})
		}
	}
}

// auditFixture builds a synthetic 3-tx block: serial oracle sets plus a
// recorded parallel schedule that agrees everywhere. Tests then perturb one
// side and check the auditor pinpoints exactly that transaction and item.
func auditFixture() (events []eventlog.Event, receipts []*types.Receipt,
	serial []*baseline.TxSets, slot sag.ItemID, bal sag.ItemID) {

	addr := types.BytesToAddress([]byte{0xaa})
	slot = sag.StorageItem(addr, types.BytesToHash([]byte{1}))
	bal = sag.BalanceItem(types.BytesToAddress([]byte{0xbb}))

	mkWS := func(fill func(ws *state.WriteSet)) *state.WriteSet {
		ws := state.NewWriteSet()
		fill(ws)
		return ws
	}
	val := func(n uint64) u256.Int { return u256.NewUint64(n) }

	// Serial story: tx0 writes slot=10; tx1 reads slot (10) and writes
	// bal=5; tx2 reads slot (10) and writes slot=20.
	serial = []*baseline.TxSets{
		{
			Receipt: &types.Receipt{Status: types.StatusSuccess, GasUsed: 21000},
			Writes:  map[sag.ItemID]struct{}{slot: {}},
			Reads:   map[sag.ItemID]struct{}{},
			Changes: mkWS(func(ws *state.WriteSet) { ws.SetStorage(addr, types.BytesToHash([]byte{1}), val(10)) }),
		},
		{
			Receipt:  &types.Receipt{Status: types.StatusSuccess, GasUsed: 22000},
			Reads:    map[sag.ItemID]struct{}{slot: {}},
			ReadVals: map[sag.ItemID]u256.Int{slot: val(10)},
			Writes:   map[sag.ItemID]struct{}{bal: {}},
			Changes:  mkWS(func(ws *state.WriteSet) { ws.Balances[bal.Addr] = val(5) }),
		},
		{
			Receipt:  &types.Receipt{Status: types.StatusSuccess, GasUsed: 23000},
			Reads:    map[sag.ItemID]struct{}{slot: {}},
			ReadVals: map[sag.ItemID]u256.Int{slot: val(10)},
			Writes:   map[sag.ItemID]struct{}{slot: {}},
			Changes:  mkWS(func(ws *state.WriteSet) { ws.SetStorage(addr, types.BytesToHash([]byte{1}), val(20)) }),
		},
	}
	receipts = []*types.Receipt{serial[0].Receipt, serial[1].Receipt, serial[2].Receipt}

	mk := func(op eventlog.Op, tx, inc, src int, item sag.ItemID, v uint64) eventlog.Event {
		return eventlog.Event{Op: op, Tx: int32(tx), Inc: int32(inc), Src: int32(src),
			Worker: -1, Item: item, Val: val(v)}
	}
	events = []eventlog.Event{
		mk(eventlog.OpDispatch, 0, 0, -1, sag.ItemID{}, 0),
		mk(eventlog.OpPublish, 0, 0, -1, slot, 10),
		mk(eventlog.OpCommit, 0, 0, -1, sag.ItemID{}, 0),
		mk(eventlog.OpDispatch, 1, 0, -1, sag.ItemID{}, 0),
		mk(eventlog.OpRead, 1, 0, 0, slot, 10), // early-read from tx0's version
		mk(eventlog.OpPublish, 1, 0, -1, bal, 5),
		mk(eventlog.OpCommit, 1, 0, -1, sag.ItemID{}, 0),
		mk(eventlog.OpDispatch, 2, 0, -1, sag.ItemID{}, 0),
		mk(eventlog.OpRead, 2, 0, 0, slot, 10),
		mk(eventlog.OpPublish, 2, 0, -1, slot, 20),
		mk(eventlog.OpCommit, 2, 0, -1, sag.ItemID{}, 0),
	}
	for i := range events {
		events[i].Seq = uint64(i)
	}
	return events, receipts, serial, slot, bal
}

func zeroPre(sag.ItemID) u256.Int { return u256.Int{} }

// TestAuditCleanBlock proves an agreeing schedule yields no mismatches.
func TestAuditCleanBlock(t *testing.T) {
	events, receipts, serial, _, _ := auditFixture()
	rep := replay.Audit(events, receipts, serial, zeroPre, nil)
	if rep.FirstDivergentTx != -1 || len(rep.Mismatches) != 0 {
		t.Fatalf("clean block audited divergent: first=%d mismatches=%+v",
			rep.FirstDivergentTx, rep.Mismatches)
	}
}

// TestAuditPinpointsInjectedDivergence perturbs the parallel schedule one
// defect at a time and checks the auditor names the right transaction, the
// right item, and the right mismatch kind — the satellite's synthetic
// injected-divergence requirement.
func TestAuditPinpointsInjectedDivergence(t *testing.T) {
	t.Run("lost-update", func(t *testing.T) {
		// tx2's read observes a torn value (7 instead of tx0's 10): the race
		// where a C-SAG-corrupted schedule let tx2 read a stale version.
		events, receipts, serial, slot, _ := auditFixture()
		events[8].Val = u256.NewUint64(7)
		rep := replay.Audit(events, receipts, serial, zeroPre, nil)
		if rep.FirstDivergentTx != 2 {
			t.Fatalf("first divergent tx = %d, want 2 (%+v)", rep.FirstDivergentTx, rep.Mismatches)
		}
		m := rep.Mismatches[0]
		if m.Kind != "read-value" || m.Item != slot.String() || m.Tx != 2 {
			t.Fatalf("mismatch = %+v, want read-value on %s at tx 2", m, slot)
		}
	})

	t.Run("wrong-write", func(t *testing.T) {
		// tx1 publishes a wrong balance (6 instead of 5).
		events, receipts, serial, _, bal := auditFixture()
		events[5].Val = u256.NewUint64(6)
		rep := replay.Audit(events, receipts, serial, zeroPre, nil)
		if rep.FirstDivergentTx != 1 {
			t.Fatalf("first divergent tx = %d, want 1 (%+v)", rep.FirstDivergentTx, rep.Mismatches)
		}
		m := rep.Mismatches[0]
		if m.Kind != "write-value" || m.Item != bal.String() {
			t.Fatalf("mismatch = %+v, want write-value on %s", m, bal)
		}
	})

	t.Run("dropped-read", func(t *testing.T) {
		// tx1's recorded schedule lost its slot read entirely (dropped C-SAG
		// edge): the serial twin read it, the parallel commit never did.
		events, receipts, serial, slot, _ := auditFixture()
		events = append(events[:4], events[5:]...)
		rep := replay.Audit(events, receipts, serial, zeroPre, nil)
		if rep.FirstDivergentTx != 1 {
			t.Fatalf("first divergent tx = %d, want 1 (%+v)", rep.FirstDivergentTx, rep.Mismatches)
		}
		m := rep.Mismatches[0]
		if m.Kind != "read-set" || m.Item != slot.String() {
			t.Fatalf("mismatch = %+v, want read-set on %s", m, slot)
		}
	})

	t.Run("receipt", func(t *testing.T) {
		// tx0's parallel receipt reports a different gas figure.
		events, _, serial, _, _ := auditFixture()
		receipts := []*types.Receipt{
			{Status: types.StatusSuccess, GasUsed: 99999},
			serial[1].Receipt, serial[2].Receipt,
		}
		rep := replay.Audit(events, receipts, serial, zeroPre, nil)
		if rep.FirstDivergentTx != 0 || rep.Mismatches[0].Kind != "receipt-gas" {
			t.Fatalf("first=%d mismatches=%+v, want receipt-gas at tx 0",
				rep.FirstDivergentTx, rep.Mismatches)
		}
	})

	t.Run("final-state-fallback", func(t *testing.T) {
		// Every per-tx comparison agrees but the committed write set differs
		// (e.g. a commit-path corruption): the block-level diff catches it.
		events, receipts, serial, _, _ := auditFixture()
		ws := state.NewWriteSet()
		for _, s := range serial {
			ws.Merge(s.Changes)
		}
		addr := types.BytesToAddress([]byte{0xcc})
		ws.Balances[addr] = u256.NewUint64(777) // phantom write
		rep := replay.Audit(events, receipts, serial, zeroPre, ws)
		if len(rep.Mismatches) == 0 || rep.Mismatches[0].Kind != "final-state" {
			t.Fatalf("mismatches=%+v, want a final-state entry", rep.Mismatches)
		}
	})
}

// TestDivergenceRecordSmoke runs a short recorded hunt end to end and, on a
// clean soak, requires the replayer's round-trip self-check to pass — the
// experiment's acceptance path in miniature.
func TestDivergenceRecordSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("divergence soak in -short mode")
	}
	dir := t.TempDir()
	run, err := RunDivergenceRecord(DivergenceConfig{
		Blocks: 4, Txs: 32, Threads: 4, Seed: 3, OutDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Diverged {
		// A real divergence reproduced: the capture, audit and shrink
		// artifacts must all be in place.
		if run.Report == nil || run.CaptureFile == "" {
			t.Fatalf("diverged without artifacts: %+v", run)
		}
		if run.Report.FirstDivergentTx < -1 {
			t.Fatalf("bad first divergent tx %d", run.Report.FirstDivergentTx)
		}
		return
	}
	rt := run.RoundTrip
	if rt == nil {
		t.Fatal("clean soak produced no round-trip self-check")
	}
	if !rt.Passed() {
		t.Fatalf("round-trip failed: %+v", rt)
	}
	if run.CaptureFile == "" {
		t.Fatal("clean soak must still persist the last capture for -replay")
	}
	// The written capture replays deterministically through the CLI path.
	rep2, err := RunDivergenceReplay(run.CaptureFile, DivergenceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Diverged {
		t.Fatalf("clean capture diverged on replay: %+v", rep2.Report)
	}
	if rt2 := rep2.RoundTrip; rt2 == nil || !rt2.Passed() {
		t.Fatalf("replayed capture round-trip failed: %+v", rep2.RoundTrip)
	}
}
