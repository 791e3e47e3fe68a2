package txpool_test

import (
	"reflect"
	"testing"

	"dmvcc/internal/baseline"
	"dmvcc/internal/core"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/txpool"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

var (
	alice     = types.HexToAddress("0xa11ce00000000000000000000000000000000001")
	bob       = types.HexToAddress("0xb0b0000000000000000000000000000000000002")
	tokenAddr = types.HexToAddress("0xc000000000000000000000000000000000000001")
)

const tokenSrc = `
contract Token {
    mapping(address => uint) balances;

    function mint(address to, uint amount) public {
        balances[to] += amount;
    }

    function transfer(address to, uint amount) public {
        require(balances[msg.sender] >= amount);
        balances[msg.sender] -= amount;
        balances[to] += amount;
    }
}
`

func setup(t *testing.T) (*state.DB, *sag.Registry, *txpool.Pool) {
	t.Helper()
	db := state.NewDB()
	reg := sag.NewRegistry()
	compiled, err := minisol.Compile(tokenSrc)
	if err != nil {
		t.Fatal(err)
	}
	o := state.NewOverlay(db)
	o.SetCode(tokenAddr, compiled.Code)
	reg.RegisterCompiled(tokenAddr, compiled)
	for _, u := range []types.Address{alice, bob} {
		o.SetBalance(u, u256.NewUint64(1_000_000_000))
		o.SetStorage(tokenAddr, minisol.MappingSlot(0, u.Word()), u256.NewUint64(10_000))
	}
	if _, err := db.Commit(o.Changes()); err != nil {
		t.Fatal(err)
	}
	blockCtx := func() evm.BlockContext {
		return evm.BlockContext{Number: 2, Timestamp: 100, GasLimit: 1_000_000_000, ChainID: 1}
	}
	pool := txpool.New(sag.NewAnalyzer(reg), db, db.Root, blockCtx)
	return db, reg, pool
}

func transferTx(nonce uint64, from, to types.Address, amount uint64) *types.Transaction {
	return &types.Transaction{
		Nonce: nonce,
		From:  from,
		To:    tokenAddr,
		Gas:   1_000_000,
		Data:  minisol.CallData("transfer", to.Word(), u256.NewUint64(amount)),
	}
}

func TestAddAnalyzesOffline(t *testing.T) {
	_, _, pool := setup(t)
	tx := transferTx(0, alice, bob, 100)
	if err := pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 1 {
		t.Fatalf("pool size %d", pool.Len())
	}
	csag := pool.SAGFor(tx.Hash())
	if csag == nil {
		t.Fatal("transaction not analyzed on arrival")
	}
	if len(csag.Reads) == 0 || (len(csag.Writes) == 0 && len(csag.Deltas) == 0) {
		t.Errorf("empty analysis: %s", csag)
	}
	analyzed, _ := pool.Stats()
	if analyzed != 1 {
		t.Errorf("analyzed = %d", analyzed)
	}
}

func TestAddDeduplicates(t *testing.T) {
	_, _, pool := setup(t)
	tx := transferTx(0, alice, bob, 100)
	if err := pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	if err := pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	if pool.Len() != 1 {
		t.Errorf("duplicate not rejected: len %d", pool.Len())
	}
}

func TestPackOrdersByArrival(t *testing.T) {
	_, _, pool := setup(t)
	t1 := transferTx(0, alice, bob, 1)
	t2 := transferTx(0, bob, alice, 2)
	t3 := transferTx(1, alice, bob, 3)
	for _, tx := range []*types.Transaction{t1, t2, t3} {
		if err := pool.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	txs, csags := pool.Pack(2)
	if len(txs) != 2 || len(csags) != 2 {
		t.Fatalf("packed %d/%d", len(txs), len(csags))
	}
	if txs[0].Hash() != t1.Hash() || txs[1].Hash() != t2.Hash() {
		t.Error("pack did not preserve arrival order")
	}
	for i, c := range csags {
		if c == nil {
			t.Fatalf("missing csag %d", i)
		}
		if c.TxIndex != i {
			t.Errorf("csag %d has index %d", i, c.TxIndex)
		}
	}
	if pool.Len() != 1 {
		t.Errorf("pool should retain the unpacked tx, len %d", pool.Len())
	}
}

func TestPackRefreshesStaleAnalysis(t *testing.T) {
	db, _, pool := setup(t)
	tx := transferTx(0, alice, bob, 100)
	if err := pool.Add(tx); err != nil {
		t.Fatal(err)
	}
	// Commit an unrelated block: the snapshot root changes, so the cached
	// C-SAG is stale and must be refreshed at pack time.
	ws := state.NewWriteSet()
	ws.Balances[types.HexToAddress("0x99")] = u256.NewUint64(1)
	if _, err := db.Commit(ws); err != nil {
		t.Fatal(err)
	}
	_, csags := pool.Pack(1)
	if csags[0] == nil {
		t.Fatal("stale analysis dropped instead of refreshed")
	}
	_, refreshed := pool.Stats()
	if refreshed != 1 {
		t.Errorf("refreshed = %d, want 1", refreshed)
	}
}

func TestPrepareBlockMixedProvenance(t *testing.T) {
	db, reg, pool := setup(t)
	pooled := transferTx(0, alice, bob, 50)
	foreign := transferTx(0, bob, alice, 70) // never seen by this pool
	if err := pool.Add(pooled); err != nil {
		t.Fatal(err)
	}
	blockTxs := []*types.Transaction{pooled, foreign}
	csags := pool.PrepareBlock(blockTxs)
	if csags[0] == nil || csags[1] == nil {
		t.Fatal("PrepareBlock must supply SAGs for both cached and foreign txs")
	}
	if csags[1].TxIndex != 1 {
		t.Errorf("foreign csag index %d", csags[1].TxIndex)
	}
	if pool.Len() != 0 {
		t.Errorf("pooled duplicate not removed, len %d", pool.Len())
	}

	// The prepared block executes correctly under DMVCC.
	res, err := core.NewExecutor(reg, 4).ExecuteBlock(db, evm.BlockContext{
		Number: 2, Timestamp: 100, GasLimit: 1_000_000_000, ChainID: 1,
	}, blockTxs, csags)
	if err != nil {
		t.Fatal(err)
	}
	root, err := db.Commit(res.WriteSet)
	if err != nil {
		t.Fatal(err)
	}

	// Compare with serial on a twin.
	db2, _, _ := setup(t)
	serial, err := baseline.ExecuteSerial(db2, evm.BlockContext{
		Number: 2, Timestamp: 100, GasLimit: 1_000_000_000, ChainID: 1,
	}, blockTxs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db2.Commit(serial.WriteSet)
	if err != nil {
		t.Fatal(err)
	}
	if root != want {
		t.Errorf("pool-prepared block diverged: %s != %s", root, want)
	}
}

// TestPooledOutcomeNeedsItsContext: the pool analyses a transaction when it
// arrives, at position 0 under the block context it expects next. Packed
// somewhere else in a block with another coinbase, number and timestamp, the
// pre-run's outcome is not an execution of that block's transaction — the fee
// would go to the wrong coinbase and the receipt would carry the wrong index
// — so the executor runs the interpreter, and the block matches serial.
func TestPooledOutcomeNeedsItsContext(t *testing.T) {
	expected := evm.BlockContext{Number: 2, Timestamp: 100, GasLimit: 1_000_000_000, ChainID: 1} // setup's
	packed := expected
	packed.Coinbase = types.HexToAddress("0xfee0000000000000000000000000000000000002")
	packed.Number, packed.Timestamp = expected.Number+1, expected.Timestamp+12

	for _, tc := range []struct {
		name    string
		ctx     evm.BlockContext
		replays int64 // the context matches for all or none, the position only for tx 0
	}{{"another-block", packed, 0}, {"expected-block", expected, 1}} {
		db, reg, pool := setup(t)
		for _, tx := range []*types.Transaction{transferTx(0, alice, bob, 100), transferTx(0, bob, alice, 30)} {
			tx.GasPrice = u256.NewUint64(2)
			if err := pool.Add(tx); err != nil {
				t.Fatal(err)
			}
		}
		txs, csags := pool.PackForBlock(tc.ctx, 2)
		for i, c := range csags {
			if c == nil || c.Outcome == nil {
				t.Fatalf("%s: tx %d packed without its analysis", tc.name, i)
			}
		}
		res, err := core.NewExecutor(reg, 2).ExecuteBlock(db, tc.ctx, txs, csags)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Replays != tc.replays {
			t.Errorf("%s: %d incarnations committed a pooled outcome, want %d", tc.name, res.Stats.Replays, tc.replays)
		}
		root, err := db.Commit(res.WriteSet)
		if err != nil {
			t.Fatal(err)
		}
		twin, _, _ := setup(t)
		serial, err := baseline.ExecuteSerial(twin, tc.ctx, txs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Commit(serial.WriteSet)
		if err != nil {
			t.Fatal(err)
		}
		if root != want {
			t.Errorf("%s: root %s, serial %s", tc.name, root, want)
		}
		if !reflect.DeepEqual(res.Receipts, serial.Receipts) {
			t.Errorf("%s: receipts differ from serial's", tc.name)
		}
	}
}

func TestPackEmptyPool(t *testing.T) {
	_, _, pool := setup(t)
	txs, csags := pool.Pack(10)
	if len(txs) != 0 || len(csags) != 0 {
		t.Errorf("empty pool packed %d txs", len(txs))
	}
}
