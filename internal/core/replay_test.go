package core_test

import (
	"reflect"
	"runtime"
	"testing"

	"dmvcc/internal/baseline"
	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

// stripOutcomes returns copies of the C-SAGs without their pre-run outcomes:
// the same predictions, but every incarnation has to run the interpreter.
// It is the only way to force that path, and only tests use it.
func stripOutcomes(csags []*sag.CSAG) []*sag.CSAG {
	out := make([]*sag.CSAG, len(csags))
	for i, c := range csags {
		if c != nil {
			out[i] = c.WithoutOutcome()
		}
	}
	return out
}

// replayWorld is one block to execute (txs under ctx) over a world, plus the
// block before it (prev under prevCtx): a stale analysis is one made before
// prev was committed, as the pipeline's is.
type replayWorld struct {
	db           state.Backend
	reg          *sag.Registry
	prevCtx, ctx evm.BlockContext
	prev, txs    []*types.Transaction
}

// familyWorld is familyCase with a block before the one under test.
func familyWorld(shape func(*workload.Config)) func(t *testing.T) replayWorld {
	return func(t *testing.T) replayWorld {
		t.Helper()
		cfg := workload.DefaultConfig()
		cfg.Users = 200
		cfg.ERC20s, cfg.AMMs, cfg.NFTs, cfg.ICOs, cfg.Routers, cfg.Oracles = 4, 4, 2, 2, 0, 2
		cfg.TxPerBlock = 64
		cfg.ContractCallFrac = 1
		cfg.ERC20Frac, cfg.DeFiFrac, cfg.NFTFrac, cfg.OracleFrac = 0, 0, 0, 0
		shape(&cfg)
		w, err := workload.BuildWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rw := replayWorld{db: w.DB, reg: w.Registry}
		rw.prevCtx, rw.prev = w.BlockContext(), w.NextBlock()
		rw.ctx, rw.txs = w.BlockContext(), w.NextBlock()
		return rw
	}
}

// fixtureWorld puts two hand-written blocks over the package fixture.
func fixtureWorld(prev, txs []*types.Transaction) func(t *testing.T) replayWorld {
	return func(t *testing.T) replayWorld {
		t.Helper()
		db, reg := fixture(t)
		prevCtx := blk
		prevCtx.Number, prevCtx.Timestamp = blk.Number-1, blk.Timestamp-12
		return replayWorld{db: db, reg: reg, prevCtx: prevCtx, ctx: blk, prev: prev, txs: txs}
	}
}

func transfer(from, to int, value uint64) *types.Transaction {
	return &types.Transaction{From: user(from), To: user(to), Value: u256.NewUint64(value), Gas: 21_000}
}

func tokenTransfer(from, to int, amount uint64) *types.Transaction {
	return call(user(from), tokenAddr, 0, "transfer", user(to).Word(), u256.NewUint64(amount))
}

// readEvents projects a trace onto its reads: item, gas offset, source, value.
func readEvents(tr *core.TxTrace) []core.TraceEvent {
	var out []core.TraceEvent
	for _, ev := range tr.Events {
		if ev.Kind == core.TraceRead {
			out = append(out, ev)
		}
	}
	return out
}

// TestReplayDifferential: committing a pre-run's outcome must be
// indistinguishable from running the interpreter. The same blocks are
// executed from the same C-SAGs with the outcomes attached and stripped, at
// one thread and at several, with the analysis made on the execution
// snapshot and made one block earlier: receipts, write sets, each trace's
// service time and read events, and the abort count have to be
// identical (reads with their gas offsets), and the committed root has to be
// the serial one.
func TestReplayDifferential(t *testing.T) {
	figPrev := figBlock()[:2] // moves I1 and I2, which the block's mixes read
	cases := []struct {
		name  string
		build func(t *testing.T) replayWorld
		// mispredicted marks a block whose C-SAGs miss accesses: how many
		// incarnations a run on several threads aborts then depends on the
		// interleaving, with or without outcomes.
		mispredicted bool
	}{
		{name: "paper-example", build: func(t *testing.T) replayWorld {
			db, reg := figWorld(t)
			prevCtx := blk
			prevCtx.Number--
			return replayWorld{db: db, reg: reg, prevCtx: prevCtx, ctx: blk, prev: figPrev, txs: figBlock()}
		}},
		{name: "erc20", build: familyWorld(func(c *workload.Config) { c.ERC20Frac = 1 })},
		{name: "defi", build: familyWorld(func(c *workload.Config) { c.DeFiFrac = 1 })},
		{name: "nft", build: familyWorld(func(c *workload.Config) { c.NFTFrac = 1 })},
		{name: "ico", build: familyWorld(func(c *workload.Config) {})},
		{name: "oracle", build: familyWorld(func(c *workload.Config) { c.OracleFrac = 1 })},
		{name: "plain-transfers", build: fixtureWorld(
			[]*types.Transaction{transfer(0, 1, 500), transfer(2, 3, 70)},
			[]*types.Transaction{transfer(1, 2, 900), transfer(3, 4, 10), transfer(5, 6, 1), transfer(6, 0, 2), transfer(7, 7, 3)},
		)},
		{name: "same-sender-chains", build: fixtureWorld(
			[]*types.Transaction{tokenTransfer(0, 9, 5), transfer(1, 9, 5)},
			[]*types.Transaction{
				tokenTransfer(0, 1, 10), tokenTransfer(0, 2, 20), transfer(0, 3, 30), tokenTransfer(0, 1, 40),
				transfer(1, 0, 1), tokenTransfer(1, 0, 10_005), call(user(1), nftAddr, 0, "mintNFT"),
			},
		)},
		{name: "create-then-call", mispredicted: true, build: fixtureWorld(
			[]*types.Transaction{transfer(8, 9, 1)},
			func() []*types.Transaction {
				code := minisol.MustCompile(tokenSrc).Code
				created := types.CreateAddress(user(2), 0)
				return []*types.Transaction{
					{From: user(2), Create: true, Data: code, Gas: 5_000_000},
					// Analysed against a snapshot without the code: a no-op there.
					call(user(3), created, 0, "mint", user(3).Word(), u256.NewUint64(77)),
					call(user(3), created, 0, "transfer", user(4).Word(), u256.NewUint64(7)),
				}
			}(),
		)},
		{name: "revert-and-out-of-gas", build: fixtureWorld(
			[]*types.Transaction{tokenTransfer(4, 5, 9_000)},
			[]*types.Transaction{
				tokenTransfer(4, 6, 5_000), // reverts once the previous block drained user 4
				tokenTransfer(5, 6, 50_000),
				{From: user(6), To: tokenAddr, Gas: 30_000, Data: minisol.CallData("transfer", user(7).Word(), u256.NewUint64(1))},
				{From: user(7), To: tokenAddr, Gas: 20_000, Data: minisol.CallData("transfer", user(8).Word(), u256.NewUint64(1))},
				tokenTransfer(6, 7, 100),
			},
		)},
	}

	threadCounts := []int{1, max(4, runtime.GOMAXPROCS(0))}
	var replays, fallbacks int64
	for _, c := range cases {
		for _, stale := range []bool{false, true} {
			for _, threads := range threadCounts {
				name := c.name
				if stale {
					name += "/stale"
				}
				// The world under test, and a twin for the serial oracle.
				w, twin := c.build(t), c.build(t)
				commitSerially := func(w replayWorld, ctx evm.BlockContext, txs []*types.Transaction) types.Hash {
					res, err := baseline.ExecuteSerial(w.db, ctx, txs)
					if err != nil {
						t.Fatalf("%s: serial: %v", name, err)
					}
					root, err := w.db.Commit(res.WriteSet)
					if err != nil {
						t.Fatal(err)
					}
					return root
				}
				an := sag.NewAnalyzer(w.reg)
				var csags []*sag.CSAG
				var err error
				if stale {
					csags, err = an.AnalyzeBlock(w.txs, w.db, w.ctx)
					commitSerially(w, w.prevCtx, w.prev)
				} else {
					commitSerially(w, w.prevCtx, w.prev)
					csags, err = an.AnalyzeBlock(w.txs, w.db, w.ctx)
				}
				if err != nil {
					t.Fatalf("%s: analysis: %v", name, err)
				}
				exec := func(csags []*sag.CSAG) *core.Result {
					res, err := core.NewExecutor(w.reg, threads).ExecuteBlock(w.db, w.ctx, w.txs, csags)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return res
				}
				with, without := exec(csags), exec(stripOutcomes(csags))

				if without.Stats.Replays != 0 {
					t.Errorf("%s: %d incarnations replayed without an outcome", name, without.Stats.Replays)
				}
				if !reflect.DeepEqual(with.Receipts, without.Receipts) {
					t.Errorf("%s/%d threads: receipts differ", name, threads)
				}
				if !reflect.DeepEqual(with.WriteSet, without.WriteSet) {
					t.Errorf("%s/%d threads: write sets differ", name, threads)
				}
				for i := range with.Traces {
					a, b := with.Traces[i], without.Traces[i]
					if a.Gas != b.Gas {
						t.Errorf("%s/%d threads: tx %d service time %d with outcomes, %d without", name, threads, i, a.Gas, b.Gas)
					}
					if ra, rb := readEvents(a), readEvents(b); !reflect.DeepEqual(ra, rb) {
						t.Errorf("%s/%d threads: tx %d reads differ:\n with    %+v\n without %+v", name, threads, i, ra, rb)
					}
				}
				if a, b := with.Stats, without.Stats; (a.Aborts != b.Aborts || a.Executions != b.Executions) && !(c.mispredicted && threads > 1) {
					t.Errorf("%s/%d threads: %d aborts in %d executions with outcomes, %d in %d without",
						name, threads, a.Aborts, a.Executions, b.Aborts, b.Executions)
				}
				root, err := w.db.Commit(with.WriteSet)
				if err != nil {
					t.Fatal(err)
				}
				commitSerially(twin, twin.prevCtx, twin.prev)
				if want := commitSerially(twin, twin.ctx, twin.txs); root != want {
					t.Errorf("%s/%d threads: root %s, serial %s", name, threads, root, want)
				}
				replays += with.Stats.Replays
				fallbacks += with.Stats.Executions - with.Stats.Replays
			}
		}
	}
	// Worth something only if both paths ran behind the outcomes.
	if replays == 0 || fallbacks == 0 {
		t.Fatalf("%d replays, %d interpreter runs with outcomes attached", replays, fallbacks)
	}
}

const slowIndirectSrc = `
contract SlowIndirect {
    mapping(uint => uint) keyOf;
    mapping(uint => uint) data;

    function setKey(uint k, uint nk) public {
        keyOf[k] = nk;
    }

    function slowWriteAt(uint k, uint v, uint n) public {
        uint acc = 0;
        for (uint i = 0; i < n; i++) {
            acc = acc + i;
        }
        data[keyOf[k]] = v;
    }

    function copyTo(uint i, uint j) public {
        data[j] = data[i];
    }
}
`

// TestReplayedIncarnationInvalidated: committing a pre-run's outcome is as
// provisional as any other incarnation. tx2's reads hold when it is
// dispatched, so it replays and completes at once; tx1 — sent to the
// interpreter by tx0's write, and slow — then makes a write its C-SAG did not
// predict to the slot tx2 read (the paper's Fig. 5), which must retire tx2's
// finished incarnation and re-execute it, this time through the interpreter.
// (At one thread transactions run in block order and nothing is ever
// invalidated, so this needs real concurrency; the spin makes the order
// near-certain and the test retries the rare miss.)
func TestReplayedIncarnationInvalidated(t *testing.T) {
	slowAddr := types.HexToAddress("0xc0000000000000000000000000000000000000b2")
	build := func(testing.TB) (*state.DB, *sag.Registry) {
		db, reg := fixture(t)
		compiled := minisol.MustCompile(slowIndirectSrc)
		ws := state.NewWriteSet()
		ws.Codes[slowAddr] = compiled.Code
		if _, err := db.Commit(ws); err != nil {
			t.Fatal(err)
		}
		reg.RegisterCompiled(slowAddr, compiled)
		return db, reg
	}
	n := func(v uint64) u256.Int { return u256.NewUint64(v) }
	txs := []*types.Transaction{
		call(user(0), slowAddr, 0, "setKey", n(1), n(7)),
		call(user(1), slowAddr, 0, "slowWriteAt", n(1), n(99), n(20_000)),
		call(user(2), slowAddr, 0, "copyTo", n(7), n(5)),
	}
	dbSerial, _ := build(t)
	serial, err := baseline.ExecuteSerial(dbSerial, blk, txs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dbSerial.Commit(serial.WriteSet)
	if err != nil {
		t.Fatal(err)
	}

	for attempt := 1; ; attempt++ {
		db, reg := build(t)
		csags, err := sag.NewAnalyzer(reg).AnalyzeBlock(txs, db, blk)
		if err != nil {
			t.Fatal(err)
		}
		events := eventlog.New()
		events.Enable()
		ex := core.NewExecutor(reg, 3)
		ex.SetLog(events)
		res, err := ex.ExecuteBlock(db, blk, txs, csags)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := db.Commit(res.WriteSet); err != nil || got != want {
			t.Fatalf("root %s (err %v), serial %s; stats %+v", got, err, want, res.Stats)
		}
		if s := res.Stats; s.Executions != int64(len(txs))+s.Aborts {
			t.Fatalf("executions %d != %d txs + %d aborts", s.Executions, len(txs), s.Aborts)
		}
		// tx2's first incarnation: committed without an early publish (an
		// interpreter run publishes its nonce bump early), then aborted with
		// its whole execution charged as waste.
		var committed, early, retired bool
		for _, e := range events.Events(int64(blk.Number)) {
			if e.Tx != 2 || e.Inc != 0 {
				continue
			}
			switch e.Op {
			case eventlog.OpPublish, eventlog.OpDelta:
				early = early || e.Early
			case eventlog.OpCommit:
				committed = true
			case eventlog.OpAbort:
				retired = committed && e.Gas > 0
			}
		}
		if committed && !early && retired {
			if res.Stats.Replays < 2 { // tx0 and tx2's first incarnation
				t.Fatalf("log shows a replayed tx2, stats count %d replays", res.Stats.Replays)
			}
			return
		}
		if attempt == 5 {
			t.Fatalf("tx2's replayed incarnation was never invalidated after completing (committed %v, early publish %v, retired %v; stats %+v)",
				committed, early, retired, res.Stats)
		}
	}
}

const tipSrc = `
contract Tip {
    uint seen;

    function tip(address to, uint amount) public {
        seen = balance(to);
        require(send(to, amount));
    }
}
`

// TestCreditAfterBalanceRead: a contract that reads BALANCE(x) and then
// sends value to x credits a balance the transaction has already observed, so
// the credit is an absolute write. The recorder used to keep the item
// classified as read-only: the C-SAG lost the write, and the outcome would
// have committed the block without it.
func TestCreditAfterBalanceRead(t *testing.T) {
	tipAddr := types.HexToAddress("0xc0000000000000000000000000000000000000b3")
	build := func(t testing.TB) (*state.DB, *sag.Registry) {
		db, reg := fixture(t)
		compiled := minisol.MustCompile(tipSrc)
		ws := state.NewWriteSet()
		ws.Codes[tipAddr] = compiled.Code
		ws.Balances[tipAddr] = u256.NewUint64(1_000_000)
		if _, err := db.Commit(ws); err != nil {
			t.Fatal(err)
		}
		reg.RegisterCompiled(tipAddr, compiled)
		return db, reg
	}
	txs := []*types.Transaction{call(user(0), tipAddr, 0, "tip", user(9).Word(), u256.NewUint64(250))}

	db, reg := build(t)
	c, err := sag.NewAnalyzer(reg).Analyze(txs[0], 0, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	credited := sag.BalanceItem(user(9))
	if !c.ReadsItem(credited) {
		t.Fatalf("BALANCE(x) is not a read dependency: %s", c)
	}
	if _, ok := c.Writes[credited]; !ok {
		t.Errorf("the credit to an observed balance is missing from the C-SAG's writes: %s", c)
	}
	stats := runBoth(t, build, txs, 2)
	if stats.Replays != 1 {
		t.Errorf("replays = %d, want 1 (the block's only transaction, analysed on the execution snapshot)", stats.Replays)
	}
}
