package core

import (
	"errors"
	"testing"

	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

const spinSrc = `
contract Spin {
    function spin(uint n) public {
        uint acc = 0;
        for (uint i = 0; i < n; i++) {
            acc = acc + i * 3;
        }
        require(acc != 7);
    }
}
`

// retireAt wraps an accessor's hooks and retires the incarnation (what an
// abort does to it) right after its at-th loop-header stop, recording the
// gas at every loop-header stop it sees.
type retireAt struct {
	*accessor
	info      *sag.ContractInfo
	at        int
	headerGas []uint64
	stopsDead int    // stops made after the retirement
	deadGas   uint64 // gas left at the last of them
}

func (h *retireAt) Step(addr types.Address, depth int, pc uint64, op evm.Opcode, gasLeft uint64) error {
	if h.accessor.dead() {
		h.stopsDead++
		h.deadGas = gasLeft
	}
	err := h.accessor.Step(addr, depth, pc, op, gasLeft)
	if err == nil && h.info.WatchAt(pc)&sag.WatchLoop != 0 {
		h.headerGas = append(h.headerGas, gasLeft)
		if len(h.headerGas) == h.at {
			h.rt.inc.Add(1)
		}
	}
	return err
}

// TestAbortNoticedWithinOneLoopIteration: the interpreter no longer stops at
// every instruction, so a dead incarnation spinning in a loop that touches no
// state must still reach a stop once per iteration (the loop header is
// watched) instead of burning its whole gas limit first.
func TestAbortNoticedWithinOneLoopIteration(t *testing.T) {
	spinAddr := types.HexToAddress("0xc0000000000000000000000000000000000000a1")
	from := types.HexToAddress("0xee00000000000000000000000000000000000001")
	compiled := minisol.MustCompile(spinSrc)
	db := state.NewDB()
	o := state.NewOverlay(db)
	o.SetCode(spinAddr, compiled.Code)
	o.SetBalance(from, u256.NewUint64(1_000_000_000))
	if _, err := db.Commit(o.Changes()); err != nil {
		t.Fatal(err)
	}
	reg := sag.NewRegistry()
	info := reg.RegisterCompiled(spinAddr, compiled)

	tx := &types.Transaction{From: from, To: spinAddr, Gas: 50_000_000,
		Data: minisol.CallData("spin", u256.NewUint64(1<<40))}
	block := evm.BlockContext{Number: 1, GasLimit: 100_000_000, ChainID: 1}
	r := &run{reg: reg, snap: db, block: block, codes: map[types.Hash][]byte{}}
	for i := range r.shards {
		r.shards[i].m = make(map[sag.ItemID]*sequence)
	}
	rt := &txRuntime{idx: 0, tx: tx, abortCh: make(chan struct{})}
	r.rts = []*txRuntime{rt}
	acc := newAccessor(r, rt, 0)
	defer r.putAccessor(acc)

	hooks := &retireAt{accessor: acc, info: info, at: 10}
	_, err := evm.ApplyTransaction(acc, block, tx, 0, hooks)
	if !errors.Is(err, evm.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted (the loop ran on to out-of-gas)", err)
	}
	if hooks.stopsDead != 1 {
		t.Errorf("dead incarnation made %d stops before aborting, want 1", hooks.stopsDead)
	}
	if len(hooks.headerGas) != hooks.at {
		t.Fatalf("saw %d loop-header stops, want %d: the retired incarnation went round again", len(hooks.headerGas), hooks.at)
	}
	// Gas burnt after the retirement: at most one iteration's worth.
	iteration := hooks.headerGas[0] - hooks.headerGas[1]
	if burnt := hooks.headerGas[hooks.at-1] - hooks.deadGas; burnt > iteration {
		t.Errorf("burnt %d gas after the abort, one iteration costs %d", burnt, iteration)
	}
}
