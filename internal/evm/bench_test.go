package evm_test

import (
	"testing"

	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// The workload's ERC20 transfer: a compute loop, a balance check, a debit,
// a blind-increment credit.
const benchTokenSrc = `
contract ERC20 {
    mapping(address => uint) balances;

    function transfer(address to, uint amount) public {
        uint spin = 0;
        for (uint i = 0; i < 40; i++) {
            spin = spin + i * 3 + spin / 7;
        }
        require(balances[msg.sender] >= amount);
        balances[msg.sender] -= amount;
        balances[to] += amount;
    }
}
`

// idleHooks does nothing at a stop, so the three benchmarks differ only in
// how often the interpreter leaves its loop to call Step.
type idleHooks struct{ table []byte }

func (h idleHooks) Watch(types.Address) []byte { return h.table }

func (h idleHooks) Step(types.Address, int, uint64, evm.Opcode, uint64) error { return nil }

// benchTransfer applies one ERC20 transfer per iteration under hooks.
func benchTransfer(b *testing.B, hooks func(table []byte) evm.Hooks) {
	b.Helper()
	compiled := minisol.MustCompile(benchTokenSrc)
	table := sag.NewRegistry().RegisterCompiled(contract, compiled).Watch
	h := hooks(table)
	tx := &types.Transaction{From: sender, To: contract, Gas: 1_000_000,
		Data: minisol.CallData("transfer", other.Word(), u256.NewUint64(1))}
	var st *state.VMAdapter
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			// A fresh overlay now and then keeps its undo journal short.
			o := state.NewOverlay(state.NewDB())
			o.SetCode(contract, compiled.Code)
			o.SetBalance(sender, u256.NewUint64(1_000_000_000))
			o.SetStorage(contract, minisol.MappingSlot(0, sender.Word()), u256.NewUint64(1<<40))
			st = state.NewVMAdapter(o)
		}
		rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, 0, h)
		if err != nil || rcpt.Status != types.StatusSuccess {
			b.Fatalf("transfer failed: %v %+v", err, rcpt)
		}
	}
}

// BenchmarkStepHookNone is the hook-less interpreter (the serial path): the
// other two are read against it. Sparse stops where the contract's watch
// table says, Dense before every instruction (the nil-table fallback).
func BenchmarkStepHookNone(b *testing.B) {
	benchTransfer(b, func([]byte) evm.Hooks { return nil })
}

func BenchmarkStepHookSparse(b *testing.B) {
	benchTransfer(b, func(table []byte) evm.Hooks { return idleHooks{table} })
}

func BenchmarkStepHookDense(b *testing.B) {
	benchTransfer(b, func([]byte) evm.Hooks { return idleHooks{} })
}
