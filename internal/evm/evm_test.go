package evm_test

import (
	"bytes"
	"errors"
	"testing"

	"dmvcc/internal/asm"
	"dmvcc/internal/evm"
	"dmvcc/internal/keccak"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

var (
	sender   = types.HexToAddress("0x1000000000000000000000000000000000000001")
	contract = types.HexToAddress("0xc000000000000000000000000000000000000001")
	other    = types.HexToAddress("0xc000000000000000000000000000000000000002")
	coinbase = types.HexToAddress("0xffff000000000000000000000000000000000001")
)

func testBlock() evm.BlockContext {
	return evm.BlockContext{Number: 10, Timestamp: 1_700_000_000, GasLimit: 30_000_000, Coinbase: coinbase, ChainID: 1}
}

// newEnv returns a fresh overlay-backed VM state with a funded sender.
func newEnv(t *testing.T) (*state.Overlay, *state.VMAdapter) {
	t.Helper()
	o := state.NewOverlay(state.NewDB())
	o.SetBalance(sender, u256.NewUint64(1_000_000_000))
	return o, state.NewVMAdapter(o)
}

// runCode installs code at the contract address and calls it.
func runCode(t *testing.T, code []byte, input []byte, gas uint64) ([]byte, uint64, error) {
	t.Helper()
	_, st := newEnv(t)
	if err := st.SetCode(contract, code); err != nil {
		t.Fatal(err)
	}
	e := evm.New(st, testBlock(), evm.TxContext{Origin: sender})
	var zero u256.Int
	return e.Call(sender, contract, input, gas, &zero)
}

// returnTop is code that computes something and returns the top of stack.
func returnTop(build func(*asm.Assembler)) []byte {
	a := asm.New()
	build(a)
	// stack: [result] -> mstore at 0, return 32 bytes
	return a.Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN).MustBytes()
}

func wantWord(t *testing.T, ret []byte, want uint64) {
	t.Helper()
	if len(ret) != 32 {
		t.Fatalf("return length %d", len(ret))
	}
	got := u256.FromBytes(ret)
	w := u256.NewUint64(want)
	if !got.Eq(&w) {
		t.Errorf("returned %s, want %d", got.Hex(), want)
	}
}

func TestArithmeticProgram(t *testing.T) {
	// (7+5)*3 - 6 = 30
	code := returnTop(func(a *asm.Assembler) {
		a.Push(6).Push(3).Push(5).Push(7).
			Op(evm.ADD). // 12
			Op(evm.MUL). // 36
			Op(evm.SUB)  // 30
	})
	ret, _, err := runCode(t, code, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 30)
}

func TestComparisonAndBitwise(t *testing.T) {
	cases := []struct {
		name  string
		build func(*asm.Assembler)
		want  uint64
	}{
		{"lt true", func(a *asm.Assembler) { a.Push(9).Push(5).Op(evm.LT) }, 1},
		{"gt false", func(a *asm.Assembler) { a.Push(9).Push(5).Op(evm.GT) }, 0},
		{"eq", func(a *asm.Assembler) { a.Push(4).Push(4).Op(evm.EQ) }, 1},
		{"iszero", func(a *asm.Assembler) { a.Push(0).Op(evm.ISZERO) }, 1},
		{"and", func(a *asm.Assembler) { a.Push(0x0f).Push(0x3c).Op(evm.AND) }, 0x0c},
		{"or", func(a *asm.Assembler) { a.Push(0x0f).Push(0x30).Op(evm.OR) }, 0x3f},
		{"xor", func(a *asm.Assembler) { a.Push(0xff).Push(0x0f).Op(evm.XOR) }, 0xf0},
		{"shl", func(a *asm.Assembler) { a.Push(1).Push(4).Op(evm.SHL) }, 16},
		{"shr", func(a *asm.Assembler) { a.Push(16).Push(2).Op(evm.SHR) }, 4},
		{"div", func(a *asm.Assembler) { a.Push(3).Push(17).Op(evm.DIV) }, 5},
		{"mod", func(a *asm.Assembler) { a.Push(3).Push(17).Op(evm.MOD) }, 2},
		{"exp", func(a *asm.Assembler) { a.Push(8).Push(2).Op(evm.EXP) }, 256},
		{"div by zero", func(a *asm.Assembler) { a.Push(0).Push(5).Op(evm.DIV) }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Assembler pushes are emitted in argument order; EVM pops
			// operate on (top, below), so builders push y then x.
			ret, _, err := runCode(t, returnTop(tc.build), nil, 100_000)
			if err != nil {
				t.Fatal(err)
			}
			wantWord(t, ret, tc.want)
		})
	}
}

func TestStorageRoundTrip(t *testing.T) {
	// store 0xbeef at slot 7, load it back and return.
	code := asm.New().
		Push(0xbeef).Push(7).Op(evm.SSTORE).
		Push(7).Op(evm.SLOAD).
		Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	o, st := newEnv(t)
	if err := st.SetCode(contract, code); err != nil {
		t.Fatal(err)
	}
	e := evm.New(st, testBlock(), evm.TxContext{Origin: sender})
	var zero u256.Int
	ret, _, err := e.Call(sender, contract, nil, 200_000, &zero)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 0xbeef)
	slot := types.HexToHash("0x07")
	if got := o.Storage(contract, slot); got.Uint64() != 0xbeef {
		t.Errorf("storage slot = %s", got.Hex())
	}
}

func TestLoopSum(t *testing.T) {
	// sum = 0; for i = 10; i > 0; i-- { sum += i }; return sum (55)
	code := asm.New().
		Push(0).  // sum
		Push(10). // i    stack: [sum, i]
		Label("loop").
		Op(evm.DUP1).                      // [sum, i, i]
		Op(evm.ISZERO).                    // [sum, i, i==0]
		JumpIf("done").                    // [sum, i]
		Op(evm.DUP1).                      // [sum, i, i]
		Op(evm.SWAP1 + 1).                 // SWAP2: [i, i, sum]
		Op(evm.ADD).                       // [i, sum']
		Op(evm.SWAP1).                     // [sum', i]
		Push(1).Op(evm.SWAP1).Op(evm.SUB). // [sum', i-1]
		Jump("loop").
		Label("done").
		Op(evm.POP). // [sum]
		Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	ret, _, err := runCode(t, code, nil, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 55)
}

func TestCalldata(t *testing.T) {
	// return calldata word at offset 4
	code := asm.New().
		Push(4).Op(evm.CALLDATALOAD).
		Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	input := make([]byte, 36)
	input[3] = 0xff // in selector, ignored
	w := u256.NewUint64(0xabcd)
	full := w.Bytes32()
	copy(input[4:36], full[:])
	ret, _, err := runCode(t, code, input, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 0xabcd)
}

func TestSha3MatchesKeccak(t *testing.T) {
	// keccak of 32-byte word 0x2a stored at memory 0
	code := asm.New().
		Push(42).Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.SHA3).
		Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	ret, _, err := runCode(t, code, nil, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	w := u256.NewUint64(42)
	full := w.Bytes32()
	want := keccak.Sum256(full[:])
	if !bytes.Equal(ret, want[:]) {
		t.Errorf("SHA3 = %x, want %x", ret, want)
	}
}

func TestRevertPropagatesData(t *testing.T) {
	code := asm.New().
		Push(0xdead).Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.REVERT).
		MustBytes()
	ret, gasLeft, err := runCode(t, code, nil, 100_000)
	if !evm.IsRevert(err) {
		t.Fatalf("err = %v, want revert", err)
	}
	wantWord(t, ret, 0xdead)
	if gasLeft == 0 {
		t.Error("revert should refund remaining gas")
	}
}

func TestRevertUndoesState(t *testing.T) {
	code := asm.New().
		Push(1).Push(0).Op(evm.SSTORE).
		Push(0).Push(0).Op(evm.REVERT).
		MustBytes()
	o, st := newEnv(t)
	if err := st.SetCode(contract, code); err != nil {
		t.Fatal(err)
	}
	e := evm.New(st, testBlock(), evm.TxContext{})
	var zero u256.Int
	_, _, err := e.Call(sender, contract, nil, 100_000, &zero)
	if !evm.IsRevert(err) {
		t.Fatalf("err = %v", err)
	}
	if got := o.Storage(contract, types.Hash{}); !got.IsZero() {
		t.Errorf("reverted write persisted: %s", got.Hex())
	}
}

func TestOutOfGas(t *testing.T) {
	// Infinite loop must exhaust gas.
	code := asm.New().Label("x").Jump("x").MustBytes()
	_, gasLeft, err := runCode(t, code, nil, 10_000)
	if !errors.Is(err, evm.ErrOutOfGas) {
		t.Fatalf("err = %v, want out of gas", err)
	}
	if gasLeft != 0 {
		t.Errorf("gasLeft = %d", gasLeft)
	}
}

func TestBadJump(t *testing.T) {
	code := asm.New().Push(3).Op(evm.JUMP, evm.STOP).MustBytes()
	_, _, err := runCode(t, code, nil, 100_000)
	if !errors.Is(err, evm.ErrBadJump) {
		t.Errorf("err = %v, want bad jump", err)
	}
}

func TestInvalidOpcode(t *testing.T) {
	_, _, err := runCode(t, []byte{byte(evm.INVALID)}, nil, 100_000)
	if !errors.Is(err, evm.ErrInvalidOpcode) {
		t.Errorf("err = %v, want invalid opcode", err)
	}
	_, _, err = runCode(t, []byte{0xef}, nil, 100_000)
	if !errors.Is(err, evm.ErrInvalidOpcode) {
		t.Errorf("unknown byte err = %v, want invalid opcode", err)
	}
}

func TestStackUnderflow(t *testing.T) {
	_, _, err := runCode(t, []byte{byte(evm.ADD)}, nil, 100_000)
	if !errors.Is(err, evm.ErrStackUnderflow) {
		t.Errorf("err = %v, want stack underflow", err)
	}
}

func TestEnvironmentOpcodes(t *testing.T) {
	cases := []struct {
		name string
		op   evm.Opcode
		want u256.Int
	}{
		{"number", evm.NUMBER, u256.NewUint64(10)},
		{"timestamp", evm.TIMESTAMP, u256.NewUint64(1_700_000_000)},
		{"chainid", evm.CHAINID, u256.NewUint64(1)},
		{"coinbase", evm.COINBASE, coinbase.Word()},
		{"address", evm.ADDRESS, contract.Word()},
		{"caller", evm.CALLER, sender.Word()},
		{"origin", evm.ORIGIN, sender.Word()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := asm.New().Op(tc.op).
				Push(0).Op(evm.MSTORE).
				Push(32).Push(0).Op(evm.RETURN).MustBytes()
			ret, _, err := runCode(t, code, nil, 100_000)
			if err != nil {
				t.Fatal(err)
			}
			got := u256.FromBytes(ret)
			if !got.Eq(&tc.want) {
				t.Errorf("%s = %s, want %s", tc.name, got.Hex(), tc.want.Hex())
			}
		})
	}
}

func TestValueTransferNoCode(t *testing.T) {
	o, st := newEnv(t)
	e := evm.New(st, testBlock(), evm.TxContext{})
	amount := u256.NewUint64(500)
	_, gasLeft, err := e.Call(sender, other, nil, 21_000, &amount)
	if err != nil {
		t.Fatal(err)
	}
	if gasLeft != 21_000 {
		t.Errorf("plain transfer consumed gas: left=%d", gasLeft)
	}
	if got := o.Balance(other); got.Uint64() != 500 {
		t.Errorf("recipient balance = %d", got.Uint64())
	}
	if got := o.Balance(sender); got.Uint64() != 1_000_000_000-500 {
		t.Errorf("sender balance = %d", got.Uint64())
	}
}

func TestInsufficientBalanceTransfer(t *testing.T) {
	_, st := newEnv(t)
	e := evm.New(st, testBlock(), evm.TxContext{})
	amount := u256.NewUint64(2_000_000_000)
	_, _, err := e.Call(sender, other, nil, 21_000, &amount)
	if !errors.Is(err, evm.ErrInsufficientBalance) {
		t.Errorf("err = %v", err)
	}
}

func TestNestedCall(t *testing.T) {
	// Callee: returns 99.
	callee := asm.New().
		Push(99).Push(0).Op(evm.MSTORE).
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	// Caller: CALL(gas, other, 0, 0, 0, 0, 32), then return memory[0:32].
	calleeWord := other.Word()
	caller := asm.New().
		Push(32).Push(0). // outLen, outOff
		Push(0).Push(0).  // inLen, inOff
		Push(0).          // value
		PushWord(&calleeWord).
		Push(50_000). // gas
		Op(evm.CALL).
		Op(evm.POP). // ignore success flag
		Push(32).Push(0).Op(evm.RETURN).
		MustBytes()
	_, st := newEnv(t)
	if err := st.SetCode(other, callee); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCode(contract, caller); err != nil {
		t.Fatal(err)
	}
	e := evm.New(st, testBlock(), evm.TxContext{Origin: sender})
	var zero u256.Int
	ret, _, err := e.Call(sender, contract, nil, 500_000, &zero)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 99)
}

func TestNestedCallRevertIsolated(t *testing.T) {
	// Callee: writes storage then reverts. Caller: ignores failure, writes
	// its own slot, succeeds.
	callee := asm.New().
		Push(1).Push(0).Op(evm.SSTORE).
		Push(0).Push(0).Op(evm.REVERT).
		MustBytes()
	calleeWord := other.Word()
	caller := asm.New().
		Push(0).Push(0).Push(0).Push(0).Push(0).
		PushWord(&calleeWord).
		Push(50_000).
		Op(evm.CALL).                   // success flag on stack
		Push(5).Op(evm.SSTORE).         // slot5 := success flag (0)
		Push(7).Push(6).Op(evm.SSTORE). // slot6 := 7
		Op(evm.STOP).
		MustBytes()
	o, st := newEnv(t)
	if err := st.SetCode(other, callee); err != nil {
		t.Fatal(err)
	}
	if err := st.SetCode(contract, caller); err != nil {
		t.Fatal(err)
	}
	e := evm.New(st, testBlock(), evm.TxContext{Origin: sender})
	var zero u256.Int
	if _, _, err := e.Call(sender, contract, nil, 500_000, &zero); err != nil {
		t.Fatal(err)
	}
	if got := o.Storage(other, types.Hash{}); !got.IsZero() {
		t.Error("callee revert leaked storage write")
	}
	if got := o.Storage(contract, types.HexToHash("0x06")); got.Uint64() != 7 {
		t.Errorf("caller write lost: %s", got.Hex())
	}
	if got := o.Storage(contract, types.HexToHash("0x05")); !got.IsZero() {
		t.Errorf("success flag for reverted call = %s, want 0", got.Hex())
	}
}

func TestLogsEmittedAndRevertTruncated(t *testing.T) {
	code := asm.New().
		Push(42).Push(0).Op(evm.MSTORE).
		Push(7). // topic
		Push(32).Push(0).
		Op(evm.LOG1).
		Op(evm.STOP).
		MustBytes()
	_, st := newEnv(t)
	if err := st.SetCode(contract, code); err != nil {
		t.Fatal(err)
	}
	e := evm.New(st, testBlock(), evm.TxContext{})
	var zero u256.Int
	if _, _, err := e.Call(sender, contract, nil, 100_000, &zero); err != nil {
		t.Fatal(err)
	}
	logs := e.Logs()
	if len(logs) != 1 {
		t.Fatalf("%d logs", len(logs))
	}
	if logs[0].Address != contract || len(logs[0].Topics) != 1 {
		t.Errorf("bad log: %+v", logs[0])
	}
	if got := u256.FromBytes(logs[0].Data); got.Uint64() != 42 {
		t.Errorf("log data = %s", got.Hex())
	}

	// Reverted frame drops its logs.
	revCode := asm.New().
		Push(0).Push(0).Op(evm.LOG0).
		Push(0).Push(0).Op(evm.REVERT).
		MustBytes()
	if err := st.SetCode(other, revCode); err != nil {
		t.Fatal(err)
	}
	e2 := evm.New(st, testBlock(), evm.TxContext{})
	_, _, err := e2.Call(sender, other, nil, 100_000, &zero)
	if !evm.IsRevert(err) {
		t.Fatal(err)
	}
	if len(e2.Logs()) != 0 {
		t.Errorf("reverted frame kept %d logs", len(e2.Logs()))
	}
}

// stepLog is an evm.Hooks that hands every frame the same watch table and
// logs the pcs Step was called at, aborting at the abortAt-th call.
type stepLog struct {
	table   []byte
	pcs     []uint64
	abortAt int
}

func (h *stepLog) Watch(types.Address) []byte { return h.table }

func (h *stepLog) Step(addr types.Address, depth int, pc uint64, op evm.Opcode, gas uint64) error {
	h.pcs = append(h.pcs, pc)
	if len(h.pcs) == h.abortAt {
		return evm.ErrAborted
	}
	return nil
}

func TestStepHookAbort(t *testing.T) {
	code := asm.New().Push(1).Push(2).Op(evm.ADD, evm.POP, evm.STOP).MustBytes()
	_, st := newEnv(t)
	if err := st.SetCode(contract, code); err != nil {
		t.Fatal(err)
	}
	hooks := &stepLog{abortAt: 3}
	e := evm.New(st, testBlock(), evm.TxContext{}, evm.WithHooks(hooks))
	var zero u256.Int
	_, _, err := e.Call(sender, contract, nil, 100_000, &zero)
	if !errors.Is(err, evm.ErrAborted) {
		t.Errorf("err = %v, want aborted", err)
	}
	if len(hooks.pcs) != 3 {
		t.Errorf("hook called %d times, want 3", len(hooks.pcs))
	}
}

// TestWatchTableSelectsStops: Step fires exactly at the marked pcs; a nil
// table, a table marking every pc and a table shorter than the code all
// mean every instruction.
func TestWatchTableSelectsStops(t *testing.T) {
	// pcs: 0 PUSH1, 2 PUSH1, 4 ADD, 5 POP, 6 STOP
	code := asm.New().Push(1).Push(2).Op(evm.ADD, evm.POP, evm.STOP).MustBytes()
	every := []uint64{0, 2, 4, 5, 6}
	full := bytes.Repeat([]byte{0x80}, len(code))
	sparse := make([]byte, len(code))
	sparse[0], sparse[5] = 1, 4
	for _, tc := range []struct {
		name  string
		table []byte
		want  []uint64
	}{
		{"nil", nil, every},
		{"all marked", full, every},
		{"sparse", sparse, []uint64{0, 5}},
		{"none marked", make([]byte, len(code)), nil},
		{"short table", []byte{0, 0, 0}, []uint64{4, 5, 6}},
	} {
		_, st := newEnv(t)
		if err := st.SetCode(contract, code); err != nil {
			t.Fatal(err)
		}
		hooks := &stepLog{table: tc.table}
		e := evm.New(st, testBlock(), evm.TxContext{}, evm.WithHooks(hooks))
		var zero u256.Int
		if _, _, err := e.Call(sender, contract, nil, 100_000, &zero); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(hooks.pcs) != len(tc.want) {
			t.Fatalf("%s: stops at %v, want %v", tc.name, hooks.pcs, tc.want)
		}
		for i, pc := range tc.want {
			if hooks.pcs[i] != pc {
				t.Fatalf("%s: stops at %v, want %v", tc.name, hooks.pcs, tc.want)
			}
		}
	}
}

func TestApplyTransactionTransfer(t *testing.T) {
	o, st := newEnv(t)
	tx := &types.Transaction{
		Nonce: 0,
		From:  sender,
		To:    other,
		Value: u256.NewUint64(1234),
		Gas:   21_000,
	}
	rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusSuccess {
		t.Errorf("status = %s", rcpt.Status)
	}
	if got := o.Balance(other); got.Uint64() != 1234 {
		t.Errorf("recipient = %d", got.Uint64())
	}
	if got := o.Nonce(sender); got != 1 {
		t.Errorf("nonce = %d", got)
	}
	if rcpt.GasUsed != evm.GasTx {
		t.Errorf("gas used = %d, want %d", rcpt.GasUsed, evm.GasTx)
	}
}

func TestApplyTransactionFees(t *testing.T) {
	o, st := newEnv(t)
	tx := &types.Transaction{
		From:     sender,
		To:       other,
		Value:    u256.NewUint64(100),
		Gas:      30_000,
		GasPrice: u256.NewUint64(2),
	}
	rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusSuccess {
		t.Fatalf("status = %s", rcpt.Status)
	}
	fee := rcpt.GasUsed * 2
	if got := o.Balance(coinbase); got.Uint64() != fee {
		t.Errorf("coinbase = %d, want %d", got.Uint64(), fee)
	}
	wantSender := 1_000_000_000 - 100 - fee
	if got := o.Balance(sender); got.Uint64() != uint64(wantSender) {
		t.Errorf("sender = %d, want %d", got.Uint64(), wantSender)
	}
}

func TestApplyTransactionRevertReceipt(t *testing.T) {
	code := asm.New().Push(0).Push(0).Op(evm.REVERT).MustBytes()
	o, st := newEnv(t)
	if err := st.SetCode(contract, code); err != nil {
		t.Fatal(err)
	}
	tx := &types.Transaction{
		From: sender,
		To:   contract,
		Gas:  100_000,
		Data: []byte{0x01}, // make it a contract call
	}
	rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusReverted {
		t.Errorf("status = %s", rcpt.Status)
	}
	if got := o.Nonce(sender); got != 1 {
		t.Errorf("nonce after revert = %d", got)
	}
}

func TestApplyTransactionCreate(t *testing.T) {
	o, st := newEnv(t)
	runtime := asm.New().Push(11).Push(0).Op(evm.MSTORE).Push(32).Push(0).Op(evm.RETURN).MustBytes()
	tx := &types.Transaction{
		From:   sender,
		Create: true,
		Gas:    200_000,
		Data:   runtime,
	}
	rcpt, err := evm.ApplyTransaction(st, testBlock(), tx, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rcpt.Status != types.StatusSuccess {
		t.Fatalf("status = %s", rcpt.Status)
	}
	created := types.BytesToAddress(rcpt.ReturnData)
	if !bytes.Equal(o.Code(created), runtime) {
		t.Error("runtime code not installed")
	}
	// The deployed contract is callable.
	e := evm.New(st, testBlock(), evm.TxContext{})
	var zero u256.Int
	ret, _, err := e.Call(sender, created, nil, 100_000, &zero)
	if err != nil {
		t.Fatal(err)
	}
	wantWord(t, ret, 11)
}

func TestIntrinsicGas(t *testing.T) {
	if g := evm.IntrinsicGas(nil); g != evm.GasTx {
		t.Errorf("empty data intrinsic = %d", g)
	}
	g := evm.IntrinsicGas([]byte{0, 1, 0, 2})
	want := evm.GasTx + 2*evm.GasTxDataZero + 2*evm.GasTxDataNonZero
	if g != want {
		t.Errorf("intrinsic = %d, want %d", g, want)
	}
}

func TestJumpDestsSkipsPushData(t *testing.T) {
	// PUSH2 0x5b5b (fake JUMPDEST bytes inside immediate), then real JUMPDEST
	code := []byte{byte(evm.PUSH1) + 1, 0x5b, 0x5b, byte(evm.JUMPDEST)}
	dests := evm.JumpDests(code)
	if len(dests) != 1 || !dests[3] {
		t.Errorf("dests = %v", dests)
	}
}
