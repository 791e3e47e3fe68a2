package sag_test

import (
	"reflect"
	"testing"

	"dmvcc/internal/asm"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/workload"
)

// TestWatchTableMarksWhatTheHooksNeed checks each class of watched pc on a
// contract with a require, a storage-free loop and blind increments.
func TestWatchTableMarksWhatTheHooksNeed(t *testing.T) {
	compiled := minisol.MustCompile(`
contract C {
    mapping(address => uint) balances;
    uint total;

    function pay(address to, uint amount) public {
        uint spin = 0;
        for (uint i = 0; i < 8; i++) {
            spin = spin + i;
        }
        require(balances[msg.sender] >= amount);
        balances[msg.sender] -= amount;
        balances[to] += amount;
        total += amount;
    }
}
`)
	info := sag.NewRegistry().RegisterCompiled(tokenAdr, compiled)
	if len(info.Watch) != len(compiled.Code) {
		t.Fatalf("table covers %d of %d code bytes", len(info.Watch), len(compiled.Code))
	}
	if info.Watch[0]&sag.WatchEntry == 0 {
		t.Error("pc 0 is not watched")
	}
	instrs := asm.Disassemble(compiled.Code)
	watched := 0
	for i, ins := range instrs {
		w := info.Watch[ins.PC]
		if w != 0 {
			watched++
		}
		switch ins.Op {
		case evm.SLOAD, evm.SSTORE, evm.BALANCE, evm.SELFBALANCE, evm.CALL:
			if w&sag.WatchAccess == 0 {
				t.Errorf("pc %#x %s: state access is not watched", ins.PC, ins.Op)
			}
		default:
			if w&sag.WatchAccess != 0 {
				t.Errorf("pc %#x %s: marked as a state access", ins.PC, ins.Op)
			}
		}
		// A released instruction that follows an unreleased one or a store
		// is where buffered writes first become publishable.
		if i > 0 && info.ReleasedAt[ins.PC] && w&sag.WatchRelease == 0 {
			prev := instrs[i-1]
			if !info.ReleasedAt[prev.PC] || prev.Op == evm.SSTORE {
				t.Errorf("pc %#x: first released pc after %s at %#x is not watched", ins.PC, prev.Op, prev.PC)
			}
		}
		if w&sag.WatchRelease != 0 && !info.ReleasedAt[ins.PC] {
			t.Errorf("pc %#x: release stop at an unreleased pc", ins.PC)
		}
	}
	for _, site := range compiled.Commutative {
		if info.Watch[site.LoadPC]&sag.WatchCommLoad == 0 || info.Watch[site.StorePC]&sag.WatchCommStore == 0 {
			t.Errorf("commutative site %#x/%#x is not flagged", site.LoadPC, site.StorePC)
		}
	}
	if len(compiled.Commutative) == 0 {
		t.Fatal("contract has no commutative site to check")
	}
	loops := info.Analysis.Graph().BackEdges()
	if len(loops) == 0 {
		t.Fatal("contract has no loop to check")
	}
	for _, edge := range loops {
		if info.Watch[edge[1]]&sag.WatchLoop == 0 {
			t.Errorf("loop header %#x is not watched", edge[1])
		}
	}
	// The point of the table: most instructions run without a hook call.
	if watched*4 > len(instrs) {
		t.Errorf("%d of %d instructions are watched; the table should be sparse", watched, len(instrs))
	}
	if info.WatchAt(uint64(len(compiled.Code))+7) != 0 {
		t.Error("WatchAt past the end of the code is not zero")
	}
}

// TestAnalyzeBlockIsDeterministicAcrossWidths: a 512-transaction mixed block
// analyzed on 1, 2, 4 and 7 threads yields deep-equal C-SAGs, with the
// snapshot and the registry read concurrently (the CI test job runs this
// under -race).
func TestAnalyzeBlockIsDeterministicAcrossWidths(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Users = 1500
	cfg.TxPerBlock = 512
	cfg.OracleFrac = 0.05
	w, err := workload.BuildWorld(cfg.HighContention())
	if err != nil {
		t.Fatal(err)
	}
	block := w.BlockContext()
	txs := w.NextBlock()
	an := sag.NewAnalyzer(w.Registry)
	want, err := an.AnalyzeBlock(txs, w.DB, block)
	if err != nil {
		t.Fatal(err)
	}
	for i, tx := range txs {
		one, err := an.Analyze(tx, i, w.DB, block)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(one, want[i]) {
			t.Fatalf("tx %d: Analyze and 1-thread AnalyzeBlock disagree:\n %s\n %s", i, one, want[i])
		}
	}
	for _, threads := range []int{2, 4, 7} {
		an.SetThreads(threads)
		for round := 0; round < 3; round++ {
			got, err := an.AnalyzeBlock(txs, w.DB, block)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("threads=%d: C-SAG %d differs:\n got  %s\n want %s", threads, i, got[i], want[i])
				}
			}
		}
	}
}
