package core_test

import (
	"reflect"
	"testing"

	"dmvcc/internal/core"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
	"dmvcc/internal/workload"
)

// watchEvery is a flag bit the scheduler gives no meaning: OR-ing it into
// every entry of a watch table makes the interpreter stop before every
// instruction — exactly what a nil table does (evm's
// TestWatchTableSelectsStops pins that equivalence) — while the hooks still
// see the contract's real flags. That is the dense run of the differential
// below; a nil table itself only ever reaches the hooks together with an
// unknown contract, which carries no flags to compare.
const watchEvery byte = 0x80

// setDense switches every registered contract among addrs between its real
// (sparse) watch table and the stop-everywhere variant.
func setDense(reg *sag.Registry, addrs []types.Address, dense bool) {
	for _, addr := range addrs {
		info := reg.Lookup(addr)
		if info == nil {
			continue
		}
		for pc := range info.Watch {
			if dense {
				info.Watch[pc] |= watchEvery
			} else {
				info.Watch[pc] &^= watchEvery
			}
		}
	}
}

// diffCase is one block over one world.
type diffCase struct {
	name  string
	db    state.Reader
	reg   *sag.Registry
	block evm.BlockContext
	txs   []*types.Transaction
}

// familyCase builds a small world whose traffic is one contract family.
func familyCase(t *testing.T, name string, shape func(*workload.Config)) diffCase {
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
	return diffCase{name: name, db: w.DB, reg: w.Registry, block: w.BlockContext(), txs: w.NextBlock()}
}

// withUnregistered appends calls into a token contract that is deployed in
// the state but missing from the registry: its frames get no watch table in
// either run, so the hooks take the every-pc fallback.
func withUnregistered(t *testing.T, c diffCase, commit func(*state.WriteSet) (types.Hash, error)) diffCase {
	t.Helper()
	stray := types.HexToAddress("0xc0000000000000000000000000000000000000ff")
	ws := state.NewWriteSet()
	ws.Codes[stray] = minisol.MustCompile(tokenSrc).Code
	if _, err := commit(ws); err != nil {
		t.Fatal(err)
	}
	from := c.txs[0].From
	c.txs = append(c.txs,
		&types.Transaction{From: from, To: stray, Gas: 2_000_000,
			Data: minisol.CallData("mint", from.Word(), u256.NewUint64(500))},
		&types.Transaction{From: from, To: stray, Gas: 2_000_000,
			Data: minisol.CallData("transfer", user(1).Word(), u256.NewUint64(20))},
	)
	c.name += "+unregistered"
	return c
}

// TestDenseSparseDifferential: stopping only where the watch tables say
// must be indistinguishable from stopping before every instruction — for
// the analyzer's C-SAGs and for a 1-thread DMVCC execution's receipts,
// write set, dependency traces (kind, item, gas offset, source, value) and
// publish/park counters.
func TestDenseSparseDifferential(t *testing.T) {
	figDB, figReg := figWorld(t)
	cases := []diffCase{
		{name: "paper-example", db: figDB, reg: figReg, block: blk, txs: figBlock()},
		familyCase(t, "erc20", func(c *workload.Config) { c.ERC20Frac = 1 }),
		familyCase(t, "defi", func(c *workload.Config) { c.DeFiFrac = 1 }),
		familyCase(t, "nft", func(c *workload.Config) { c.NFTFrac = 1 }),
		familyCase(t, "ico", func(c *workload.Config) {}),
		familyCase(t, "oracle", func(c *workload.Config) { c.OracleFrac = 1 }),
	}
	cases[1] = withUnregistered(t, cases[1], cases[1].db.(state.Backend).Commit)

	var early, delta int64
	for _, c := range cases {
		var addrs []types.Address
		for _, tx := range c.txs {
			addrs = append(addrs, tx.To)
		}
		type outcome struct {
			csags []*sag.CSAG
			res   *core.Result
		}
		run := func(dense bool) outcome {
			setDense(c.reg, addrs, dense)
			defer setDense(c.reg, addrs, false)
			csags, err := sag.NewAnalyzer(c.reg).AnalyzeBlock(c.txs, c.db, c.block)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			res, err := core.NewExecutor(c.reg, 1).ExecuteBlock(c.db, c.block, c.txs, csags)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			return outcome{csags, res}
		}
		sparse, dense := run(false), run(true)

		if !reflect.DeepEqual(sparse.csags, dense.csags) {
			for i := range sparse.csags {
				if !reflect.DeepEqual(sparse.csags[i], dense.csags[i]) {
					t.Errorf("%s: C-SAG %d differs:\n sparse %s\n dense  %s", c.name, i, sparse.csags[i], dense.csags[i])
				}
			}
		}
		if !reflect.DeepEqual(sparse.res.Receipts, dense.res.Receipts) {
			t.Errorf("%s: receipts differ", c.name)
		}
		if !reflect.DeepEqual(sparse.res.WriteSet, dense.res.WriteSet) {
			t.Errorf("%s: write sets differ", c.name)
		}
		for i := range sparse.res.Traces {
			if !reflect.DeepEqual(sparse.res.Traces[i], dense.res.Traces[i]) {
				t.Errorf("%s: trace of tx %d differs:\n sparse %+v\n dense  %+v", c.name, i, sparse.res.Traces[i], dense.res.Traces[i])
			}
		}
		s, d := sparse.res.Stats, dense.res.Stats
		if s.EarlyPublishes != d.EarlyPublishes || s.DeltaPublishes != d.DeltaPublishes ||
			s.BlockedReads != d.BlockedReads || s.Aborts != d.Aborts || s.Executions != d.Executions {
			t.Errorf("%s: stats differ:\n sparse %+v\n dense  %+v", c.name, s, d)
		}
		early += s.EarlyPublishes
		delta += s.DeltaPublishes
	}
	// The comparison is only worth something if the flag-driven paths ran.
	if early == 0 || delta == 0 {
		t.Fatalf("no release stop or commutative site exercised (early %d, delta %d)", early, delta)
	}
}
