package evm

import (
	"errors"

	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// State is the interface through which the VM touches blockchain state.
// Every method may fail: scheduler-backed implementations return ErrAborted
// to tear down an execution whose reads became stale (the paper's
// non-deterministic abort), and may block inside reads until the version a
// transaction must observe has been produced.
type State interface {
	// GetBalance returns the wei balance of addr.
	GetBalance(addr types.Address) (u256.Int, error)
	// SetBalance overwrites the wei balance of addr.
	SetBalance(addr types.Address, v u256.Int) error
	// GetNonce returns the nonce of addr.
	GetNonce(addr types.Address) (uint64, error)
	// SetNonce overwrites the nonce of addr.
	SetNonce(addr types.Address, v uint64) error
	// GetCode returns the contract code of addr (nil if none).
	GetCode(addr types.Address) ([]byte, error)
	// SetCode installs contract code at addr.
	SetCode(addr types.Address, code []byte) error
	// GetState reads one 256-bit storage slot.
	GetState(addr types.Address, key types.Hash) (u256.Int, error)
	// SetState writes one 256-bit storage slot.
	SetState(addr types.Address, key types.Hash, v u256.Int) error
	// Snapshot returns a revision token for RevertToSnapshot.
	Snapshot() int
	// RevertToSnapshot undoes all writes made after the token was taken.
	RevertToSnapshot(rev int)
}

// Hooks is a scheduler's view into the interpreter. The interpreter asks
// Watch for a table once per call frame and then calls Step only where the
// table says so, which keeps the instruction loop free of scheduler work
// everywhere else.
type Hooks interface {
	// Watch returns the watch table of the contract at addr, whose code is
	// about to run in a new frame: one byte per pc, non-zero where Step must
	// be called (what the bits mean is the provider's business). A nil table
	// means the provider knows nothing about the contract, and Step is then
	// called before every instruction; so are pcs past the table's end.
	Watch(addr types.Address) []byte
	// Step observes the instruction at a watched pc before it executes,
	// along with the address of the contract whose code is running.
	// Returning a non-nil error aborts the frame with that error; schedulers
	// use this to stop doomed executions and to process release points.
	Step(addr types.Address, depth int, pc uint64, op Opcode, gasLeft uint64) error
}

// BalanceAdder is an optional State extension for blind balance credits.
// When implemented, the VM routes value-transfer credits (recipient,
// coinbase fee) through it, letting multi-version schedulers record them as
// commutative deltas instead of read-modify-writes (§IV-D).
type BalanceAdder interface {
	AddBalance(addr types.Address, delta u256.Int) error
}

// creditBalance adds delta to addr's balance, preferring the commutative
// AddBalance fast path when the backend provides one.
func creditBalance(st State, addr types.Address, delta *u256.Int) error {
	if ba, ok := st.(BalanceAdder); ok {
		return ba.AddBalance(addr, *delta)
	}
	cur, err := st.GetBalance(addr)
	if err != nil {
		return err
	}
	var next u256.Int
	next.Add(&cur, delta)
	return st.SetBalance(addr, next)
}

// BlockContext carries the block-level environment opcodes can observe.
type BlockContext struct {
	Number    uint64
	Timestamp uint64
	GasLimit  uint64
	Coinbase  types.Address
	ChainID   uint64
}

// TxContext carries the transaction-level environment.
type TxContext struct {
	Origin   types.Address
	GasPrice u256.Int
}

// maxCallDepth matches Ethereum's 1024-frame limit.
const maxCallDepth = 1024

// EVM executes contract code against a State. An EVM instance is bound to
// one (block, transaction) context and is not safe for concurrent use; the
// schedulers create one instance per transaction execution, mirroring the
// paper's pool of EVM instances bound to CPU cores.
type EVM struct {
	state State
	block BlockContext
	tx    TxContext
	hooks Hooks

	logs       []types.Log
	returnData []byte
	depth      int
}

// Option configures an EVM.
type Option func(*EVM)

// WithHooks installs scheduler hooks (nil installs none).
func WithHooks(h Hooks) Option {
	return func(e *EVM) { e.hooks = h }
}

// New returns an EVM bound to the given state and context.
func New(st State, block BlockContext, tx TxContext, opts ...Option) *EVM {
	e := &EVM{state: st, block: block, tx: tx}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Logs returns the events accumulated by committed frames so far.
func (e *EVM) Logs() []types.Log { return e.logs }

// Call executes the code at `to` with the given input, transferring value
// from caller first. It returns the frame's return data and remaining gas.
// On RevertError the state changes of this frame (only) are undone and
// remaining gas is returned; on other errors all gas is consumed.
func (e *EVM) Call(caller, to types.Address, input []byte, gas uint64, value *u256.Int) (ret []byte, gasLeft uint64, err error) {
	if e.depth >= maxCallDepth {
		return nil, gas, ErrCallDepth
	}
	rev := e.state.Snapshot()
	logMark := len(e.logs)

	if !value.IsZero() {
		if err := e.transfer(caller, to, value); err != nil {
			return nil, gas, err
		}
	}
	code, err := e.state.GetCode(to)
	if err != nil {
		return nil, 0, err
	}
	if len(code) == 0 {
		// Plain value transfer; nothing to execute.
		return nil, gas, nil
	}

	e.depth++
	f := &frame{
		code:      code,
		input:     input,
		addr:      to,
		caller:    caller,
		value:     *value,
		gas:       gas,
		stack:     newStack(),
		jumpdests: JumpDests(code),
	}
	if e.hooks != nil {
		f.watch = e.hooks.Watch(to)
	}
	ret, err = e.run(f)
	e.depth--

	if err != nil {
		e.state.RevertToSnapshot(rev)
		e.logs = e.logs[:logMark]
		if IsRevert(err) {
			return ret, f.gas, err
		}
		if errors.Is(err, ErrAborted) {
			return nil, 0, err
		}
		return nil, 0, err
	}
	return ret, f.gas, nil
}

// transfer moves value between accounts through the State interface.
func (e *EVM) transfer(from, to types.Address, value *u256.Int) error {
	fb, err := e.state.GetBalance(from)
	if err != nil {
		return err
	}
	var nfb u256.Int
	if nfb.SubUnderflow(&fb, value) {
		return ErrInsufficientBalance
	}
	if err := e.state.SetBalance(from, nfb); err != nil {
		return err
	}
	return creditBalance(e.state, to, value)
}

// ExecutionResult is the outcome of applying one transaction.
type ExecutionResult struct {
	Receipt *types.Receipt
	GasLeft uint64
}

// ApplyTransaction runs the standard transaction state transition against
// st: intrinsic gas, upfront gas purchase, nonce bump, the call itself, gas
// refund, and the coinbase fee credit. Deterministic failures (revert,
// out-of-gas) produce a receipt; an ErrAborted from the scheduler (or any
// state error) is returned as an error and produces no receipt.
//
// Contract creation is simplified: the transaction payload is installed
// directly as the runtime code of the derived contract address (the minisol
// toolchain emits runtime code; there is no constructor phase).
//
// hooks may be nil: the interpreter then runs without any scheduler stop.
func ApplyTransaction(st State, block BlockContext, tx *types.Transaction, txIndex int, hooks Hooks) (*types.Receipt, error) {
	e := New(st, block, TxContext{Origin: tx.From, GasPrice: tx.GasPrice}, WithHooks(hooks))

	receipt := &types.Receipt{TxHash: tx.Hash(), TxIndex: txIndex}

	intrinsic := IntrinsicGas(tx.Data)
	if tx.Gas < intrinsic {
		// Underpriced transaction: consumed in full, no execution.
		receipt.Status = types.StatusOutOfGas
		receipt.GasUsed = tx.Gas
		if err := chargeFee(st, tx, block.Coinbase, tx.Gas); err != nil {
			return nil, err
		}
		if err := bumpNonce(st, tx.From); err != nil {
			return nil, err
		}
		return receipt, nil
	}

	// Buy gas up front.
	var upfront u256.Int
	gasWord := u256.NewUint64(tx.Gas)
	upfront.Mul(&gasWord, &tx.GasPrice)
	bal, err := st.GetBalance(tx.From)
	if err != nil {
		return nil, err
	}
	var need u256.Int
	need.Add(&upfront, &tx.Value)
	if bal.Lt(&need) {
		// Cannot even fund the transaction: no-op apart from the nonce.
		receipt.Status = types.StatusReverted
		receipt.GasUsed = 0
		if err := bumpNonce(st, tx.From); err != nil {
			return nil, err
		}
		return receipt, nil
	}
	if !upfront.IsZero() {
		// Skip the no-op debit when gas is free so fee accounting does not
		// manufacture spurious sender-balance writes for the scheduler.
		var afterBuy u256.Int
		afterBuy.Sub(&bal, &upfront)
		if err := st.SetBalance(tx.From, afterBuy); err != nil {
			return nil, err
		}
	}
	if err := bumpNonce(st, tx.From); err != nil {
		return nil, err
	}

	gas := tx.Gas - intrinsic
	to := tx.To
	if tx.Create {
		nonce, err := st.GetNonce(tx.From)
		if err != nil {
			return nil, err
		}
		to = types.CreateAddress(tx.From, nonce-1)
		if err := st.SetCode(to, tx.Data); err != nil {
			return nil, err
		}
		if !tx.Value.IsZero() {
			if err := e.transfer(tx.From, to, &tx.Value); err != nil && !errors.Is(err, ErrInsufficientBalance) {
				return nil, err
			}
		}
		receipt.Status = types.StatusSuccess
		receipt.GasUsed = intrinsic
		receipt.ReturnData = to[:]
		return receipt, settleGas(st, e, tx, block.Coinbase, gas)
	}

	var input []byte
	if tx.IsContractCall() {
		input = tx.Data
	}
	ret, gasLeft, vmErr := e.Call(tx.From, to, input, gas, &tx.Value)
	switch {
	case vmErr == nil:
		receipt.Status = types.StatusSuccess
		receipt.ReturnData = ret
		receipt.Logs = e.Logs()
	case IsRevert(vmErr):
		receipt.Status = types.StatusReverted
		receipt.ReturnData = ret
	case errors.Is(vmErr, ErrInsufficientBalance):
		// Top-level value transfer the sender cannot fund after gas
		// purchase: deterministic no-op failure.
		receipt.Status = types.StatusReverted
		gasLeft = gas
	case IsDeterministicAbort(vmErr):
		receipt.Status = types.StatusOutOfGas
		gasLeft = 0
	case errors.Is(vmErr, ErrAborted):
		return nil, vmErr
	default:
		// Internal VM faults (bad jump, stack violations) consume all gas,
		// like Ethereum's "exceptional halt".
		if isStateError(vmErr) {
			return nil, vmErr
		}
		receipt.Status = types.StatusOutOfGas
		gasLeft = 0
	}
	receipt.GasUsed = tx.Gas - gasLeft
	return receipt, settleGas(st, e, tx, block.Coinbase, gasLeft)
}

// isStateError reports errors that came from the State backend rather than
// contract semantics. Scheduler backends wrap everything in ErrAborted, so
// by default nothing matches; this exists as a seam for custom backends.
func isStateError(err error) bool {
	return errors.Is(err, ErrAborted)
}

func bumpNonce(st State, addr types.Address) error {
	n, err := st.GetNonce(addr)
	if err != nil {
		return err
	}
	return st.SetNonce(addr, n+1)
}

// settleGas refunds the unused gas to the sender and credits the coinbase
// with the fee for consumed gas.
func settleGas(st State, e *EVM, tx *types.Transaction, coinbase types.Address, gasLeft uint64) error {
	if tx.GasPrice.IsZero() {
		return nil
	}
	leftWord := u256.NewUint64(gasLeft)
	var refund u256.Int
	refund.Mul(&leftWord, &tx.GasPrice)
	if err := creditBalance(st, tx.From, &refund); err != nil {
		return err
	}
	used := u256.NewUint64(tx.Gas - gasLeft)
	var fee u256.Int
	fee.Mul(&used, &tx.GasPrice)
	return creditBalance(st, coinbase, &fee)
}

// chargeFee sends the full fee for `gasUsed` to the coinbase (used on
// intrinsic-gas failure).
func chargeFee(st State, tx *types.Transaction, coinbase types.Address, gasUsed uint64) error {
	if tx.GasPrice.IsZero() {
		return nil
	}
	used := u256.NewUint64(gasUsed)
	var fee u256.Int
	fee.Mul(&used, &tx.GasPrice)
	bal, err := st.GetBalance(tx.From)
	if err != nil {
		return err
	}
	var nb u256.Int
	if nb.SubUnderflow(&bal, &fee) {
		nb = u256.Zero
	}
	if err := st.SetBalance(tx.From, nb); err != nil {
		return err
	}
	cb, err := st.GetBalance(coinbase)
	if err != nil {
		return err
	}
	var ncb u256.Int
	ncb.Add(&cb, &fee)
	return st.SetBalance(coinbase, ncb)
}

// OverlayState adapts a state.Overlay-style backend to the evm.State
// interface. It is defined here as an interface to avoid an import cycle;
// see the adapter in the executor packages.
