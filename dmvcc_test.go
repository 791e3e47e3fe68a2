package dmvcc_test

import (
	"bytes"
	"strings"
	"testing"

	"dmvcc"
)

var (
	alice = dmvcc.HexAddress("0xa11ce00000000000000000000000000000000001")
	bob   = dmvcc.HexAddress("0xb0b0000000000000000000000000000000000002")
	tAddr = dmvcc.HexAddress("0xc000000000000000000000000000000000000001")
)

const tokenSrc = `
contract Token {
    mapping(address => uint) balances;
    uint totalSupply;

    function mint(address to, uint amount) public {
        balances[to] += amount;
        totalSupply += amount;
    }

    function transfer(address to, uint amount) public {
        require(balances[msg.sender] >= amount);
        balances[msg.sender] -= amount;
        balances[to] += amount;
    }

    function balanceOf(address a) public view returns (uint) {
        return balances[a];
    }
}
`

func newChain(t *testing.T) (*dmvcc.Chain, *dmvcc.Contract) {
	t.Helper()
	var token *dmvcc.Contract
	c, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
		g.Fund(alice, 1_000_000_000)
		g.Fund(bob, 1_000_000_000)
		var err error
		token, err = g.Deploy(tAddr, tokenSrc)
		return err
	}, dmvcc.WithThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	return c, token
}

func TestFacadeEndToEnd(t *testing.T) {
	c, token := newChain(t)

	txs := []*dmvcc.Transaction{
		dmvcc.MustCall(0, alice, token, 0, "mint", alice.Word(), dmvcc.NewWord(1000)),
		dmvcc.MustCall(1, alice, token, 0, "transfer", bob.Word(), dmvcc.NewWord(400)),
		dmvcc.NewTransfer(2, alice, bob, 777),
	}
	res, err := c.ExecuteBlock(dmvcc.ModeDMVCC, txs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Receipts) != 3 {
		t.Fatalf("%d receipts", len(res.Receipts))
	}
	for i, r := range res.Receipts {
		if r.Status.String() != "success" {
			t.Errorf("tx %d status %s", i, r.Status)
		}
	}
	bal, err := c.StaticCall(alice, token, "balanceOf", bob.Word())
	if err != nil {
		t.Fatal(err)
	}
	if bal.Uint64() != 400 {
		t.Errorf("bob token balance = %d", bal.Uint64())
	}
	if got := c.Balance(bob); got.Uint64() != 1_000_000_777 {
		t.Errorf("bob ether = %d", got.Uint64())
	}
	if c.Height() != 2 {
		t.Errorf("height = %d", c.Height())
	}
}

func TestFacadeModesAgree(t *testing.T) {
	mkTxs := func(token *dmvcc.Contract) []*dmvcc.Transaction {
		return []*dmvcc.Transaction{
			dmvcc.MustCall(0, alice, token, 0, "mint", alice.Word(), dmvcc.NewWord(500)),
			dmvcc.MustCall(1, alice, token, 0, "transfer", bob.Word(), dmvcc.NewWord(200)),
			dmvcc.MustCall(0, bob, token, 0, "transfer", alice.Word(), dmvcc.NewWord(50)),
		}
	}
	var roots []dmvcc.Hash
	for _, mode := range []dmvcc.Mode{dmvcc.ModeSerial, dmvcc.ModeDAG, dmvcc.ModeOCC, dmvcc.ModeDMVCC} {
		c, token := newChain(t)
		res, err := c.ExecuteBlock(mode, mkTxs(token))
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		roots = append(roots, res.Root)
	}
	for i := 1; i < len(roots); i++ {
		if roots[i] != roots[0] {
			t.Errorf("root %d differs: %s != %s", i, roots[i], roots[0])
		}
	}
}

// TestFacadeBackendsAgree runs the same chain on every state backend — the
// reference trie DB, flat at 1 and 16 shards, and the disk-backed flat
// store — under every execution mode, and requires byte-identical roots at
// every height.
func TestFacadeBackendsAgree(t *testing.T) {
	newBackend := map[string]func() (dmvcc.StateBackend, error){
		"trie":  func() (dmvcc.StateBackend, error) { return dmvcc.NewTrieBackend(), nil },
		"flat1": func() (dmvcc.StateBackend, error) { return dmvcc.NewFlatBackend(dmvcc.FlatOpts{Shards: 1}) },
		"flat":  func() (dmvcc.StateBackend, error) { return dmvcc.NewFlatBackend(dmvcc.FlatOpts{}) },
		"disk": func() (dmvcc.StateBackend, error) {
			return dmvcc.NewFlatBackend(dmvcc.FlatOpts{Dir: t.TempDir()})
		},
	}
	for _, mode := range []dmvcc.Mode{dmvcc.ModeSerial, dmvcc.ModeDMVCC} {
		roots := map[string][]dmvcc.Hash{}
		for name, mk := range newBackend {
			b, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			var token *dmvcc.Contract
			c, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
				g.Fund(alice, 1_000_000_000)
				g.Fund(bob, 1_000_000_000)
				token, err = g.Deploy(tAddr, tokenSrc)
				return err
			}, dmvcc.WithThreads(4), dmvcc.WithBackend(b))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			roots[name] = append(roots[name], c.Root())
			for blk := 0; blk < 3; blk++ {
				txs := []*dmvcc.Transaction{
					dmvcc.MustCall(uint64(2*blk), alice, token, 0, "mint", alice.Word(), dmvcc.NewWord(1000)),
					dmvcc.MustCall(uint64(2*blk+1), alice, token, 0, "transfer", bob.Word(), dmvcc.NewWord(100)),
					dmvcc.NewTransfer(uint64(blk), bob, alice, 7),
				}
				res, err := c.ExecuteBlock(mode, txs)
				if err != nil {
					t.Fatalf("%s block %d: %v", name, blk, err)
				}
				roots[name] = append(roots[name], res.Root)
			}
			b.Close()
		}
		ref := roots["trie"]
		for name, got := range roots {
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("mode %s: %s root[%d] = %s, want %s", mode, name, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestGenesisStorageAndMappingSlot(t *testing.T) {
	var token *dmvcc.Contract
	c, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
		var err error
		token, err = g.Deploy(tAddr, tokenSrc)
		if err != nil {
			return err
		}
		g.Fund(alice, 10)
		// Pre-mint directly via the storage layout.
		g.SetStorage(tAddr, dmvcc.MappingSlot(0, alice.Word()), dmvcc.NewWord(9999))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	bal, err := c.StaticCall(alice, token, "balanceOf", alice.Word())
	if err != nil {
		t.Fatal(err)
	}
	if bal.Uint64() != 9999 {
		t.Errorf("pre-minted balance = %d", bal.Uint64())
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	_, token := newChain(t)
	if _, err := token.CallData("nope"); err == nil {
		t.Error("expected error for unknown method")
	}
	if _, err := dmvcc.NewCall(0, alice, token, 0, "nope"); err == nil {
		t.Error("NewCall should reject unknown methods")
	}
}

func TestBadGenesisSourceFails(t *testing.T) {
	_, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
		_, err := g.Deploy(tAddr, "contract Broken {")
		return err
	})
	if err == nil {
		t.Error("expected genesis failure for broken contract")
	}
}

func TestPoolPackAndExecute(t *testing.T) {
	c, token := newChain(t)
	txs := []*dmvcc.Transaction{
		dmvcc.MustCall(0, alice, token, 0, "mint", alice.Word(), dmvcc.NewWord(1000)),
		dmvcc.MustCall(1, alice, token, 0, "transfer", bob.Word(), dmvcc.NewWord(300)),
		dmvcc.NewTransfer(0, bob, alice, 42),
	}
	for _, tx := range txs {
		if err := c.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	if c.Pending() != 3 {
		t.Fatalf("pending = %d", c.Pending())
	}
	res, err := c.PackAndExecute(dmvcc.ModeDMVCC, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Receipts) != 2 || c.Pending() != 1 {
		t.Fatalf("packed %d receipts, %d pending", len(res.Receipts), c.Pending())
	}
	res2, err := c.PackAndExecute(dmvcc.ModeDMVCC, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Receipts) != 1 || c.Pending() != 0 {
		t.Fatalf("second pack: %d receipts, %d pending", len(res2.Receipts), c.Pending())
	}
	bal, err := c.StaticCall(alice, token, "balanceOf", bob.Word())
	if err != nil {
		t.Fatal(err)
	}
	if bal.Uint64() != 300 {
		t.Errorf("bob = %d", bal.Uint64())
	}
	if c.Height() != 3 {
		t.Errorf("height = %d", c.Height())
	}
}

// TestPackAndExecutePipelined drains the same pool contents through the
// pipelined path and the per-block PackAndExecute loop on twin chains; the
// committed roots and heights must agree.
func TestPackAndExecutePipelined(t *testing.T) {
	mkTxs := func(token *dmvcc.Contract) []*dmvcc.Transaction {
		return []*dmvcc.Transaction{
			dmvcc.MustCall(0, alice, token, 0, "mint", alice.Word(), dmvcc.NewWord(1_000)),
			dmvcc.MustCall(1, alice, token, 0, "transfer", bob.Word(), dmvcc.NewWord(100)),
			dmvcc.MustCall(0, bob, token, 0, "transfer", alice.Word(), dmvcc.NewWord(40)),
			dmvcc.NewTransfer(2, alice, bob, 7),
			dmvcc.MustCall(3, alice, token, 0, "mint", bob.Word(), dmvcc.NewWord(500)),
			dmvcc.MustCall(1, bob, token, 0, "transfer", alice.Word(), dmvcc.NewWord(250)),
		}
	}

	seq, tokenSeq := newChain(t)
	pipe, tokenPipe := newChain(t)
	for _, tx := range mkTxs(tokenSeq) {
		if err := seq.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}
	for _, tx := range mkTxs(tokenPipe) {
		if err := pipe.Submit(tx); err != nil {
			t.Fatal(err)
		}
	}

	var seqRoots []dmvcc.Hash
	for seq.Pending() > 0 {
		res, err := seq.PackAndExecute(dmvcc.ModeDMVCC, 2)
		if err != nil {
			t.Fatal(err)
		}
		seqRoots = append(seqRoots, res.Root)
	}

	results, stats, err := pipe.PackAndExecutePipelined(dmvcc.ModeDMVCC, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(seqRoots) {
		t.Fatalf("pipelined %d blocks, sequential %d", len(results), len(seqRoots))
	}
	for i, res := range results {
		if res.Root != seqRoots[i] {
			t.Errorf("block %d: pipelined root %s != sequential %s", i, res.Root, seqRoots[i])
		}
		if res.Block == nil {
			t.Errorf("block %d not sealed", i)
		}
	}
	if pipe.Pending() != 0 {
		t.Errorf("%d txs left in the pipelined pool", pipe.Pending())
	}
	if pipe.Height() != seq.Height() {
		t.Errorf("heights diverged: %d vs %d", pipe.Height(), seq.Height())
	}
	if stats.Blocks != len(results) {
		t.Errorf("stats report %d blocks, want %d", stats.Blocks, len(results))
	}
	if stats.Reused == 0 {
		t.Error("no pool-cached analyses were reused")
	}
}

func TestGossipBetweenChains(t *testing.T) {
	// Two validators with identical genesis: one mines, the other imports
	// the encoded block and must reach the same root under a different
	// scheduler.
	miner, tokenM := newChain(t)
	validator, _ := newChain(t)
	if miner.Root() != validator.Root() {
		t.Fatal("genesis mismatch")
	}

	txs := []*dmvcc.Transaction{
		dmvcc.MustCall(0, alice, tokenM, 0, "mint", alice.Word(), dmvcc.NewWord(900)),
		dmvcc.MustCall(1, alice, tokenM, 0, "transfer", bob.Word(), dmvcc.NewWord(450)),
	}
	mined, err := miner.ExecuteBlock(dmvcc.ModeSerial, txs)
	if err != nil {
		t.Fatal(err)
	}
	if mined.Block == nil {
		t.Fatal("no sealed block")
	}

	imported, err := validator.ImportBlock(dmvcc.ModeDMVCC, dmvcc.EncodeBlock(mined.Block))
	if err != nil {
		t.Fatal(err)
	}
	if imported.Root != mined.Root {
		t.Errorf("roots diverged: %s vs %s", imported.Root, mined.Root)
	}
	if validator.Root() != miner.Root() {
		t.Error("chains diverged after import")
	}

	// Tampered payloads are rejected.
	enc := dmvcc.EncodeBlock(mined.Block)
	enc[len(enc)-1] ^= 0x01
	if _, err := validator.ImportBlock(dmvcc.ModeDMVCC, enc); err == nil {
		t.Error("tampered block accepted")
	}
	// Wrong-height blocks are rejected.
	if _, err := validator.ImportBlock(dmvcc.ModeDMVCC, dmvcc.EncodeBlock(mined.Block)); err == nil {
		t.Error("replayed block accepted")
	}
}

// TestFacadeEventLog attaches the scheduler event log via the facade — the one
// attachment point — and reads all three views back through the chain: the
// block post-mortem, its critical path, and the Perfetto trace.
func TestFacadeEventLog(t *testing.T) {
	events := dmvcc.NewEventLog()
	events.Enable()
	var token *dmvcc.Contract
	c, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
		g.Fund(alice, 1_000_000_000)
		g.Fund(bob, 1_000_000_000)
		var derr error
		token, derr = g.Deploy(tAddr, tokenSrc)
		// Pre-mint so the transfers do not depend on an in-block write: the
		// snapshot-based C-SAG analysis then predicts them exactly.
		g.SetStorage(tAddr, dmvcc.MappingSlot(0, alice.Word()), dmvcc.NewWord(1000))
		return derr
	}, dmvcc.WithThreads(4), dmvcc.WithEventLog(events))
	if err != nil {
		t.Fatal(err)
	}
	txs := []*dmvcc.Transaction{
		dmvcc.MustCall(0, alice, token, 0, "transfer", bob.Word(), dmvcc.NewWord(400)),
		dmvcc.MustCall(1, alice, token, 0, "transfer", bob.Word(), dmvcc.NewWord(100)),
	}
	if _, err := c.ExecuteBlock(dmvcc.ModeDMVCC, txs); err != nil {
		t.Fatal(err)
	}
	pm := c.PostMortem(1)
	if pm == nil {
		t.Fatal("no post-mortem for block 1")
	}
	if pm.Txs != 2 || pm.TotalItems == 0 {
		t.Fatalf("post-mortem = %+v", pm)
	}
	if pm.Audit == nil || pm.Audit.MispredictedTxs != 0 {
		t.Fatalf("audit = %+v, want a fully predicted block", pm.Audit)
	}

	if cp := c.CriticalPath(1); cp == nil || len(cp.Hops) == 0 {
		t.Fatalf("critical path = %+v, want a chain ending at the last commit", cp)
	}
	var trace bytes.Buffer
	if err := c.ExportTrace(&trace); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"block 1 scheduler"`, `"pipeline"`, `"execution block 1"`, `"commit block 1"`} {
		if !strings.Contains(trace.String(), want) {
			t.Errorf("exported trace lacks %s", want)
		}
	}

	// Without a log the readers report nothing rather than panicking.
	bare, _ := newChain(t)
	if bare.PostMortem(1) != nil || bare.CriticalPath(1) != nil {
		t.Fatal("log-less chain produced a report")
	}
	if err := bare.ExportTrace(&trace); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeHardening pins the WithHardening plumbing: an impossible
// incarnation cap cannot trip on a conflict-free block, and the block still
// commits the serial root with untouched stats.
func TestFacadeHardening(t *testing.T) {
	var token *dmvcc.Contract
	c, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
		g.Fund(alice, 1_000_000_000)
		var derr error
		token, derr = g.Deploy(tAddr, tokenSrc)
		return derr
	}, dmvcc.WithThreads(4), dmvcc.WithHardening(dmvcc.Hardening{MaxTxIncarnations: 2}))
	if err != nil {
		t.Fatal(err)
	}
	txs := []*dmvcc.Transaction{
		dmvcc.MustCall(0, alice, token, 0, "mint", alice.Word(), dmvcc.NewWord(10)),
		dmvcc.MustCall(1, alice, token, 0, "mint", bob.Word(), dmvcc.NewWord(20)),
	}
	res, err := c.ExecuteBlock(dmvcc.ModeDMVCC, txs)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded {
		t.Fatalf("conflict-free block degraded: %+v", res.Stats)
	}
	for i, r := range res.Receipts {
		if r.Status != 1 {
			t.Fatalf("receipt %d status %d", i, r.Status)
		}
	}
}
