package core_test

// Reconstruction of the paper's running example (Fig. 4 and Fig. 6): six
// transactions over three state items where write versioning lets two
// writers of I1 run concurrently, commutative writes let T2 and T4 update
// I2 in parallel, and early visibility lets T3 start as soon as T1's write
// to I1 is released. We express the example as contract calls, execute it
// under DMVCC, and check both the semantics (serial-equivalent root) and
// the schedule quality (virtual makespan on three threads beats
// transaction-level scheduling, as Fig. 6 shows vs Fig. 4(b)).

import (
	"testing"

	"dmvcc/internal/baseline"
	"dmvcc/internal/core"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/schedsim"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

const figSrc = `
contract Items {
    mapping(uint => uint) I;

    // write: I[k] = v (an absolute write, creates a version)
    function write(uint k, uint v) public {
        uint spin = 0;
        for (uint j = 0; j < 25; j++) {
            spin = spin + j;
        }
        I[k] = v;
    }

    // bump: commutative blind increment of I[k]
    function bump(uint k, uint v) public {
        uint spin = 0;
        for (uint j = 0; j < 25; j++) {
            spin = spin + j;
        }
        I[k] += v;
    }

    // mix: read I[a], write its value into I[b]
    function mix(uint a, uint b) public {
        uint spin = 0;
        for (uint j = 0; j < 25; j++) {
            spin = spin + j;
        }
        I[b] = I[a] + 1;
    }
}
`

var itemsAddr = types.HexToAddress("0xc000000000000000000000000000000000000009")

// figWorld deploys and registers the Items contract over funded users.
func figWorld(t *testing.T) (*state.DB, *sag.Registry) {
	t.Helper()
	db := state.NewDB()
	reg := sag.NewRegistry()
	compiled := minisol.MustCompile(figSrc)
	o := state.NewOverlay(db)
	o.SetCode(itemsAddr, compiled.Code)
	reg.RegisterCompiled(itemsAddr, compiled)
	for i := 0; i < 8; i++ {
		o.SetBalance(user(i), u256.NewUint64(1_000_000_000))
	}
	if _, err := db.Commit(o.Changes()); err != nil {
		t.Fatal(err)
	}
	return db, reg
}

// figBlock is the block of Fig. 4(a), following its access sequences:
//
//	T1: ω(I1)            T2: ω̄(I2)        T3: ρ(I1) ω(I3)
//	T4: ω̄(I2)            T5: ω(I1)        T6: ρ(I2) ω(I3)
//
// (T5 writes I1 again — write versioning means no conflict with T1.)
func figBlock() []*types.Transaction {
	itemCall := func(i int, method string, args ...uint64) *types.Transaction {
		words := make([]u256.Int, len(args))
		for j, a := range args {
			words[j] = u256.NewUint64(a)
		}
		return &types.Transaction{
			From: user(i),
			To:   itemsAddr,
			Gas:  2_000_000,
			Data: minisol.CallData(method, words...),
		}
	}
	return []*types.Transaction{
		itemCall(1, "write", 1, 100), // T1: ω(I1)
		itemCall(2, "bump", 2, 10),   // T2: ω̄(I2)
		itemCall(3, "mix", 1, 3),     // T3: ρ(I1), ω(I3)
		itemCall(4, "bump", 2, 20),   // T4: ω̄(I2)
		itemCall(5, "write", 1, 200), // T5: ω(I1)
		itemCall(6, "mix", 2, 3),     // T6: ρ(I2), ω(I3)
	}
}

func TestPaperFig4Example(t *testing.T) {
	buildDB := func() (*state.DB, *sag.Registry) { return figWorld(t) }
	txs := figBlock()

	// Semantics: identical to serial.
	dbS, _ := buildDB()
	serial, err := baseline.ExecuteSerial(dbS, blk, txs)
	if err != nil {
		t.Fatal(err)
	}
	wantRoot, err := dbS.Commit(serial.WriteSet)
	if err != nil {
		t.Fatal(err)
	}

	db, reg := buildDB()
	an := sag.NewAnalyzer(reg)
	csags, err := an.AnalyzeBlock(txs, db, blk)
	if err != nil {
		t.Fatal(err)
	}
	// The analyzer must classify the bumps as deltas (Definition 3's
	// non-conflicting ω̄) and the two writers of I1 as non-conflicting.
	if len(csags[1].Deltas) == 0 || len(csags[3].Deltas) == 0 {
		t.Fatalf("bumps not classified as deltas: %s / %s", csags[1], csags[3])
	}
	if csags[0].ConflictsWith(csags[4]) {
		t.Error("two writers of I1 must not conflict (write versioning)")
	}
	if csags[1].ConflictsWith(csags[3]) {
		t.Error("two commutative bumps of I2 must not conflict")
	}
	if !csags[0].ConflictsWith(csags[2]) {
		t.Error("T1 (ω I1) and T3 (ρ I1) must conflict")
	}

	res, err := core.NewExecutor(reg, 3).ExecuteBlock(db, blk, txs, csags)
	if err != nil {
		t.Fatal(err)
	}
	root, err := db.Commit(res.WriteSet)
	if err != nil {
		t.Fatal(err)
	}
	if root != wantRoot {
		t.Fatalf("Fig. 4 example diverged from serial")
	}
	if res.Stats.DeltaPublishes < 2 {
		t.Errorf("expected >= 2 delta publishes, got %d", res.Stats.DeltaPublishes)
	}

	// Schedule quality, as in Fig. 6 vs Fig. 4(b): on three threads the
	// fine-grained schedule must beat transaction-level DAG scheduling of
	// the same block (which serializes T2-T4 via the ω̄ pair it treats as a
	// write-write conflict, and delays T3 until T1 fully commits).
	var serialSpan uint64
	for _, tr := range res.Traces {
		serialSpan += tr.Gas
	}
	dmvccSpan := schedsim.DMVCC(res.Traces, 3, res.WastedGas)

	dbD, _ := buildDB()
	sets, err := baseline.OracleSets(dbD, blk, txs)
	if err != nil {
		t.Fatal(err)
	}
	dagOut, err := baseline.ExecuteDAG(dbD, blk, txs, baseline.Coarsen(sets), 3)
	if err != nil {
		t.Fatal(err)
	}
	_ = dagOut
	costs := make([]uint64, len(txs))
	for i, r := range serial.Receipts {
		intrinsic := uint64(21000 + 16*len(txs[i].Data))
		costs[i] = core.ExecCost(r.GasUsed, intrinsic)
	}
	dagSpan := schedsim.DAG(costs, baseline.BuildDeps(baseline.Coarsen(sets)), 3)

	if dmvccSpan >= dagSpan {
		t.Errorf("fine-grained schedule (%d) should beat transaction-level DAG (%d) on the Fig. 4 block",
			dmvccSpan, dagSpan)
	}
	t.Logf("Fig. 4 block on 3 threads: serial=%d dag=%d dmvcc=%d (gas-time units)",
		serialSpan, dagSpan, dmvccSpan)
}
