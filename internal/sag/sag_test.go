package sag_test

import (
	"strings"
	"testing"

	"dmvcc/internal/cfg"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

var (
	alice    = types.HexToAddress("0xa11ce00000000000000000000000000000000001")
	bob      = types.HexToAddress("0xb0b0000000000000000000000000000000000002")
	carol    = types.HexToAddress("0xca50100000000000000000000000000000000003")
	tokenAdr = types.HexToAddress("0xc000000000000000000000000000000000000011")
	blk      = evm.BlockContext{Number: 5, Timestamp: 100, GasLimit: 30_000_000, ChainID: 1}
)

const tokenSrc = `
contract Token {
    mapping(address => uint) balances;
    uint totalSupply;
    address owner;

    function init() public { owner = msg.sender; }

    function mint(address to, uint amount) public {
        require(msg.sender == owner);
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

// setup deploys the token, mints a balance for alice, and commits, so the
// analyzer has a realistic snapshot to read.
func setup(t *testing.T) (*state.DB, *sag.Analyzer, *minisol.Compiled) {
	t.Helper()
	db := state.NewDB()
	compiled, err := minisol.Compile(tokenSrc)
	if err != nil {
		t.Fatal(err)
	}
	o := state.NewOverlay(db)
	o.SetCode(tokenAdr, compiled.Code)
	o.SetBalance(alice, u256.NewUint64(1_000_000_000))
	o.SetBalance(bob, u256.NewUint64(1_000_000_000))
	// Pre-populate token balances directly via the storage layout.
	slotAlice := minisol.MappingSlot(compiled.Slots["balances"], alice.Word())
	o.SetStorage(tokenAdr, slotAlice, u256.NewUint64(10_000))
	o.SetStorage(tokenAdr, types.HexToHash("0x02"), alice.Word()) // owner = alice
	if _, err := db.Commit(o.Changes()); err != nil {
		t.Fatal(err)
	}
	reg := sag.NewRegistry()
	reg.RegisterCompiled(tokenAdr, compiled)
	return db, sag.NewAnalyzer(reg), compiled
}

func callTx(from types.Address, method string, args ...u256.Int) *types.Transaction {
	return &types.Transaction{
		From: from,
		To:   tokenAdr,
		Gas:  1_000_000,
		Data: minisol.CallData(method, args...),
	}
}

func TestTransferCSAG(t *testing.T) {
	db, an, compiled := setup(t)
	tx := callTx(alice, "transfer", bob.Word(), u256.NewUint64(100))
	c, err := an.Analyze(tx, 0, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	if c.Outcome.Receipt.Status != types.StatusSuccess {
		t.Fatalf("predicted status %s", c.Outcome.Receipt.Status)
	}
	slotAlice := sag.StorageItem(tokenAdr, minisol.MappingSlot(compiled.Slots["balances"], alice.Word()))
	slotBob := sag.StorageItem(tokenAdr, minisol.MappingSlot(compiled.Slots["balances"], bob.Word()))

	// Sender's token slot: read (require) + write (debit) -> θ.
	if !c.ReadsItem(slotAlice) {
		t.Error("sender slot should be read")
	}
	if _, ok := c.Writes[slotAlice]; !ok {
		t.Error("sender slot should be absolutely written")
	}
	// Recipient's token slot: blind increment -> δ only.
	if c.ReadsItem(slotBob) {
		t.Error("recipient slot should not be a read dependency")
	}
	if _, ok := c.Deltas[slotBob]; !ok {
		t.Errorf("recipient slot should be a delta; CSAG: %s", c)
	}
	// Sender nonce read+written; code of the token read.
	if _, ok := c.Writes[sag.NonceItem(alice)]; !ok {
		t.Error("sender nonce should be written")
	}
	if !c.ReadsItem(sag.CodeItem(tokenAdr)) {
		t.Error("token code should be read")
	}
}

func TestSelfTransferDegradesDelta(t *testing.T) {
	db, an, compiled := setup(t)
	// alice -> alice: the recipient slot aliases the already-read sender
	// slot, so the blind increment must degrade to a normal rmw.
	tx := callTx(alice, "transfer", alice.Word(), u256.NewUint64(100))
	c, err := an.Analyze(tx, 0, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	slotAlice := sag.StorageItem(tokenAdr, minisol.MappingSlot(compiled.Slots["balances"], alice.Word()))
	if _, ok := c.Deltas[slotAlice]; ok {
		t.Error("self-transfer slot must not be classified as delta")
	}
	if _, ok := c.Writes[slotAlice]; !ok {
		t.Error("self-transfer slot should be an absolute write")
	}
	// Semantics preserved: balance unchanged.
	if c.Outcome.Receipt.Status != types.StatusSuccess {
		t.Errorf("status = %s", c.Outcome.Receipt.Status)
	}
}

func TestMintCSAGDeltas(t *testing.T) {
	db, an, compiled := setup(t)
	tx := callTx(alice, "mint", carol.Word(), u256.NewUint64(42))
	c, err := an.Analyze(tx, 0, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	slotCarol := sag.StorageItem(tokenAdr, minisol.MappingSlot(compiled.Slots["balances"], carol.Word()))
	supply := sag.StorageItem(tokenAdr, types.HexToHash("0x01"))
	if _, ok := c.Deltas[slotCarol]; !ok {
		t.Errorf("mint recipient should be delta; %s", c)
	}
	if _, ok := c.Deltas[supply]; !ok {
		t.Errorf("totalSupply should be delta; %s", c)
	}
	owner := sag.StorageItem(tokenAdr, types.HexToHash("0x02"))
	if !c.ReadsItem(owner) {
		t.Error("owner slot should be read by the require")
	}
}

func TestPlainTransferCSAG(t *testing.T) {
	db, an, _ := setup(t)
	tx := &types.Transaction{
		From:  alice,
		To:    carol,
		Value: u256.NewUint64(5000),
		Gas:   21_000,
	}
	c, err := an.Analyze(tx, 3, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	if c.TxIndex != 3 {
		t.Errorf("tx index %d", c.TxIndex)
	}
	if !c.ReadsItem(sag.BalanceItem(alice)) {
		t.Error("sender balance should be read")
	}
	if _, ok := c.Writes[sag.BalanceItem(alice)]; !ok {
		t.Error("sender balance should be written")
	}
	// Recipient credit is a blind delta.
	if _, ok := c.Deltas[sag.BalanceItem(carol)]; !ok {
		t.Errorf("recipient balance should be delta; %s", c)
	}
	if c.ReadsItem(sag.BalanceItem(carol)) {
		t.Error("recipient balance should not be a read dependency")
	}
}

func TestConflictDetection(t *testing.T) {
	db, an, _ := setup(t)
	t1 := callTx(alice, "transfer", bob.Word(), u256.NewUint64(10))
	t2 := callTx(alice, "transfer", carol.Word(), u256.NewUint64(10))
	t3 := callTx(bob, "transfer", carol.Word(), u256.NewUint64(10))

	c1, err := an.Analyze(t1, 0, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := an.Analyze(t2, 1, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	c3, err := an.Analyze(t3, 2, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	// t1 and t2 share alice's slot (read+write) -> conflict.
	if !c1.ConflictsWith(c2) {
		t.Error("t1 and t2 should conflict (same sender)")
	}
	// t2 and t3 only share carol's slot as deltas -> no conflict.
	if c2.ConflictsWith(c3) {
		t.Errorf("t2 and t3 should not conflict\n%s\n%s", c2, c3)
	}
}

func TestDifferentBlocksWriteCounts(t *testing.T) {
	db, an, compiled := setup(t)
	tx := callTx(alice, "transfer", bob.Word(), u256.NewUint64(1))
	c, err := an.Analyze(tx, 0, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	slotBob := sag.StorageItem(tokenAdr, minisol.MappingSlot(compiled.Slots["balances"], bob.Word()))
	if c.Deltas[slotBob] != 1 {
		t.Errorf("recipient delta count = %d, want 1", c.Deltas[slotBob])
	}
}

func TestRevertedTxStillAnalyzed(t *testing.T) {
	db, an, _ := setup(t)
	// bob has no token balance: transfer reverts at the require.
	tx := callTx(bob, "transfer", alice.Word(), u256.NewUint64(10))
	c, err := an.Analyze(tx, 0, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	if c.Outcome.Receipt.Status != types.StatusReverted {
		t.Errorf("predicted status %s, want reverted", c.Outcome.Receipt.Status)
	}
	// The failed require still read bob's slot.
	found := false
	for id := range c.Reads {
		if id.Kind == sag.KindStorage {
			found = true
		}
	}
	if !found {
		t.Error("reverted tx should still record its reads")
	}
}

func TestPSAGStructure(t *testing.T) {
	_, an, compiled := setup(t)
	info := an.Registry().Lookup(tokenAdr)
	if info == nil {
		t.Fatal("token not registered")
	}
	p := sag.BuildPSAG(info)
	if len(p.ReleasePCs) == 0 {
		t.Error("expected at least one release point")
	}
	if len(p.Accesses) == 0 {
		t.Error("expected static access nodes")
	}
	// Constant-slot accesses (owner, totalSupply) should be resolved; the
	// mapping accesses must be placeholders.
	var known, placeholder int
	for _, a := range p.Accesses {
		if a.Known {
			known++
		} else {
			placeholder++
		}
	}
	if known == 0 {
		t.Error("expected some statically-resolved slots")
	}
	if placeholder == 0 {
		t.Error("expected placeholder accesses for mapping keys")
	}
	dump := p.Format()
	for _, want := range []string{"release points", "state accesses", "ω̄", "watch table"} {
		if !strings.Contains(dump, want) {
			t.Errorf("P-SAG dump missing %q", want)
		}
	}
	_ = compiled
}

func TestReleasePointsAfterLastAbortable(t *testing.T) {
	_, an, _ := setup(t)
	info := an.Registry().Lookup(tokenAdr)
	a := info.Analysis
	// The dispatcher's entry (pc 0) can always reach a revert.
	if a.Released(0) {
		t.Error("entry pc must not be released")
	}
	// The shared revert/invalid tails themselves are abortable.
	found := false
	for pc := uint64(0); pc < uint64(len(info.Code)); pc++ {
		if a.Released(pc) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no released pc found in token contract")
	}
}

func TestGasBoundMonotonicity(t *testing.T) {
	src := `
contract Straight {
    uint a;
    uint b;
    function f() public {
        a = 1;
        b = 2;
    }
}
`
	compiled, err := minisol.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	a := cfg.Analyze(compiled.Code)
	// Within any straight-line block the bound must be non-increasing.
	g := a.Graph()
	for _, start := range g.Order {
		b := g.Blocks[start]
		prev := uint64(cfg.GasUnbounded)
		first := true
		for _, ins := range b.Instrs {
			bound := a.GasBound(ins.PC)
			if !first && bound > prev {
				t.Fatalf("gas bound increased within block at pc %d: %d > %d", ins.PC, bound, prev)
			}
			prev = bound
			first = false
		}
	}
}

func TestItemIDHelpers(t *testing.T) {
	s := sag.StorageItem(alice, types.HexToHash("0x05"))
	if s.Kind != sag.KindStorage || s.Addr != alice {
		t.Error("StorageItem fields")
	}
	ids := []sag.ItemID{sag.NonceItem(bob), sag.BalanceItem(alice), s}
	sag.SortItems(ids)
	if ids[0].Kind != sag.KindStorage {
		t.Errorf("sort order: %v", ids)
	}
	for _, id := range ids {
		if id.String() == "" {
			t.Error("empty item string")
		}
	}
}
