// Package dmvcc is the public facade of the DMVCC reproduction: a
// single-node blockchain with pluggable block execution — serial, DAG-based,
// OCC, or DMVCC (deterministic multi-version concurrency control with
// write versioning, early-write visibility, and commutative writes, per
// "Smart Contract Parallel Execution with Fine-Grained State Accesses",
// ICDCS 2023).
//
// Typical use:
//
//	c, err := dmvcc.NewChain(func(g *dmvcc.Genesis) error {
//	    g.Fund(alice, 1_000_000)
//	    _, err := g.Deploy(tokenAddr, tokenSource)
//	    return err
//	})
//	...
//	res, err := c.ExecuteBlock(dmvcc.ModeDMVCC, txs)
package dmvcc

import (
	"fmt"
	"io"

	"dmvcc/internal/chain"
	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/txpool"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// Core chain types, re-exported for users of the facade.
type (
	// Address is a 20-byte account address.
	Address = types.Address
	// Hash is a 32-byte digest / storage key.
	Hash = types.Hash
	// Word is a 256-bit EVM word.
	Word = u256.Int
	// Transaction is a block transaction.
	Transaction = types.Transaction
	// Receipt is a transaction execution result.
	Receipt = types.Receipt
	// Block is a sealed block (header + transactions).
	Block = types.Block
	// Mode selects an execution scheme by its registered name.
	Mode = chain.Mode
	// Stats carries DMVCC scheduler counters.
	Stats = core.Stats
	// PipelineStats reports the analysis/execution overlap of a pipelined
	// multi-block execution.
	PipelineStats = chain.PipelineStats
	// EventLog is the scheduler event log: the one per-block record of every
	// DMVCC scheduling action, attached via WithEventLog and read back with
	// (*Chain).ExportTrace, CriticalPath and PostMortem.
	EventLog = eventlog.Log
	// Metrics is a counters/gauges/histograms registry attached via
	// WithMetrics.
	Metrics = telemetry.Registry
	// CriticalPath is the dependency chain bounding one block's makespan.
	CriticalPath = telemetry.CriticalPath
	// PostMortem is the per-block conflict report — abort causes, cascade
	// trees, hot-key contention profiles, and the C-SAG prediction audit —
	// read from the event log.
	PostMortem = telemetry.PostMortem
	// StateBackend is the pluggable committed-state store behind a Chain:
	// the reference trie DB (NewTrieBackend) or a flat-KV backend with lazy
	// sharded trie commit (NewFlatBackend). All backends produce
	// byte-identical state roots; they differ in read latency, commit
	// overlap, and memory/disk footprint. Attach via WithBackend.
	StateBackend = state.Backend
	// FlatOpts configures a flat backend: Shards (1 or 16 account-trie
	// shards; 0 = 16) and Dir (non-empty = disk-backed log-structured KV,
	// bounded memory at large state sizes).
	FlatOpts = state.FlatOpts
	// CommitStats is the per-commit timing split a flat backend reports.
	CommitStats = state.CommitStats
	// Hardening bundles the DMVCC failure-containment policy: the
	// per-transaction incarnation cap and wasted-gas budget of the
	// abort-storm circuit breaker, the stall watchdog's timeout and
	// recovery budget, and whether a tripped breaker degrades the block to
	// the serial baseline (the default — the committed root is unchanged,
	// Stats.Degraded reports it) or fails with core.ErrCircuitBreaker.
	// Attach via WithHardening; zero fields select the defaults.
	Hardening = core.Hardening
)

// NewEventLog returns a disabled scheduler event log; call Enable on it and
// attach it with WithEventLog.
func NewEventLog() *EventLog { return eventlog.New() }

// NewMetrics returns an empty metrics registry for WithMetrics.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// NewTrieBackend returns the reference trie-first state database (the
// default backend).
func NewTrieBackend() StateBackend { return state.NewDB() }

// NewFlatBackend returns a flat-KV state backend: reads served from flat
// maps, trie nodes touched only at commit, the account trie hashed in
// key-range shards by parallel workers, and commits running asynchronously
// off the block pipeline's critical path. With opts.Dir set, state and trie
// nodes live in disk-backed logs and memory stays bounded as state grows.
func NewFlatBackend(opts FlatOpts) (StateBackend, error) { return state.NewFlat(opts) }

// Execution schemes registered by the chain package. Additional schedulers
// registered via chain.RegisterScheduler are addressed by their name.
const (
	ModeSerial = chain.ModeSerial
	ModeDAG    = chain.ModeDAG
	ModeOCC    = chain.ModeOCC
	ModeDMVCC  = chain.ModeDMVCC
)

// Modes lists every registered execution scheme in presentation order.
func Modes() []Mode { return chain.Modes() }

// HexAddress parses a 0x-prefixed address (panics on bad input; intended
// for constants).
func HexAddress(s string) Address { return types.HexToAddress(s) }

// NewWord returns a Word holding v.
func NewWord(v uint64) Word { return u256.NewUint64(v) }

// Contract is a deployed minisol contract.
type Contract struct {
	Addr     Address
	Compiled *minisol.Compiled
}

// CallData builds the input for calling one of the contract's functions.
func (c *Contract) CallData(method string, args ...Word) ([]byte, error) {
	if _, ok := c.Compiled.Functions[method]; !ok {
		return nil, fmt.Errorf("dmvcc: contract %s has no function %q", c.Compiled.Name, method)
	}
	return minisol.CallData(method, args...), nil
}

// Genesis assembles the initial chain state.
type Genesis struct {
	overlay *state.Overlay
	reg     *sag.Registry
}

// Fund credits an account with wei.
func (g *Genesis) Fund(addr Address, amount uint64) {
	g.overlay.SetBalance(addr, u256.NewUint64(amount))
}

// Deploy compiles minisol source and installs it at addr.
func (g *Genesis) Deploy(addr Address, source string) (*Contract, error) {
	compiled, err := minisol.Compile(source)
	if err != nil {
		return nil, err
	}
	g.overlay.SetCode(addr, compiled.Code)
	g.reg.RegisterCompiled(addr, compiled)
	return &Contract{Addr: addr, Compiled: compiled}, nil
}

// SetStorage writes a raw storage slot (e.g. to pre-mint balances).
func (g *Genesis) SetStorage(addr Address, slot Hash, val Word) {
	g.overlay.SetStorage(addr, slot, val)
}

// MappingSlot returns the storage slot of mapping[key] for a mapping at
// baseSlot, following Ethereum's layout rule.
func MappingSlot(baseSlot uint64, key Word) Hash {
	return minisol.MappingSlot(baseSlot, key)
}

// Chain is a single-node blockchain: committed state plus every registered
// execution engine.
type Chain struct {
	db       state.Backend
	reg      *sag.Registry
	eng      *chain.Engine
	pool     *txpool.Pool
	height   uint64
	lastHash Hash
	threads  int
	chainID  uint64
	log      *eventlog.Log
	ledger   *telemetry.StageLedger // pipeline-stage intervals for ExportTrace
	metrics  *telemetry.Registry
	harden   *Hardening
}

// Option configures a Chain.
type Option func(*Chain)

// WithThreads sets the worker-thread count for parallel schemes
// (default 8).
func WithThreads(n int) Option {
	return func(c *Chain) { c.threads = n }
}

// WithChainID sets the chain identifier carried in every block context and
// used when validating imported blocks (default 1).
func WithChainID(id uint64) Option {
	return func(c *Chain) { c.chainID = id }
}

// WithEventLog attaches the scheduler event log: while enabled, every DMVCC
// block appends its complete scheduling history — dispatches, resolved
// reads, parks, publishes, aborts with their structured cause, commits — to
// it, and the chain keeps pipeline-stage intervals alongside. One record,
// three readers: ExportTrace (Chrome/Perfetto timeline), CriticalPath and
// PostMortem.
func WithEventLog(l *EventLog) Option {
	return func(c *Chain) { c.log = l }
}

// WithMetrics attaches a metrics registry accumulating per-mode latency
// histograms, commit timings, and scheduler counters.
func WithMetrics(m *Metrics) Option {
	return func(c *Chain) { c.metrics = m }
}

// WithBackend installs a custom state backend (see NewFlatBackend and
// NewTrieBackend). The default is the reference trie DB. The chain takes
// ownership: a disk-backed backend is the caller's to Close after the chain
// is done.
func WithBackend(b StateBackend) Option {
	return func(c *Chain) { c.db = b }
}

// WithHardening sets the DMVCC failure-containment policy — abort-storm
// circuit breaker thresholds, stall-watchdog timing, and whether tripped
// blocks degrade to the serial baseline or fail. Without it the defaults
// apply (64 incarnations per transaction, 10s stall timeout, 2 watchdog
// recoveries, degradation enabled).
func WithHardening(h Hardening) Option {
	return func(c *Chain) { c.harden = &h }
}

// NewChain builds a chain, running the genesis function to set up initial
// accounts and contracts, and commits the genesis block.
func NewChain(genesis func(*Genesis) error, opts ...Option) (*Chain, error) {
	reg := sag.NewRegistry()
	c := &Chain{reg: reg, threads: 8, chainID: 1}
	for _, o := range opts {
		o(c)
	}
	if c.db == nil {
		c.db = state.NewDB()
	}
	g := &Genesis{overlay: state.NewOverlay(c.db), reg: reg}
	if genesis != nil {
		if err := genesis(g); err != nil {
			return nil, fmt.Errorf("dmvcc: genesis: %w", err)
		}
	}
	if _, err := c.db.Commit(g.overlay.Changes()); err != nil {
		return nil, fmt.Errorf("dmvcc: commit genesis: %w", err)
	}
	engOpts := []chain.EngineOption{chain.WithChainID(c.chainID),
		chain.WithLog(c.log), chain.WithMetrics(c.metrics)}
	if c.log != nil {
		c.ledger = telemetry.NewStageLedger()
		c.ledger.Enable()
		engOpts = append(engOpts, chain.WithLedger(c.ledger))
	}
	if c.harden != nil {
		engOpts = append(engOpts, chain.WithHardening(*c.harden))
	}
	c.eng = chain.NewEngine(c.db, reg, c.threads, engOpts...)
	c.pool = txpool.New(c.eng.Analyzer(), c.db, c.db.Root, c.blockContext)
	c.height = 1
	return c, nil
}

// Root returns the current committed state root.
func (c *Chain) Root() Hash { return c.db.Root() }

// Height returns the next block number.
func (c *Chain) Height() uint64 { return c.height }

// Balance reads an account's committed balance.
func (c *Chain) Balance(addr Address) Word { return c.db.Balance(addr) }

// Storage reads a committed storage slot.
func (c *Chain) Storage(addr Address, slot Hash) Word { return c.db.Storage(addr, slot) }

// PostMortem returns the conflict post-mortem of a previously executed block,
// or nil when no event log is attached (WithEventLog), the block was not
// executed under DMVCC while it was enabled, or the log has since evicted it.
func (c *Chain) PostMortem(number uint64) *PostMortem {
	return telemetry.BlockPostMortem(c.log.Block(int64(number)))
}

// CriticalPath returns the dependency chain that bounded a previously
// executed block's makespan (nil under the same conditions as PostMortem).
func (c *Chain) CriticalPath(number uint64) *CriticalPath {
	return telemetry.BlockCriticalPath(c.log.Block(int64(number)))
}

// ExportTrace writes every block the event log still retains as Chrome
// trace-event JSON (load in https://ui.perfetto.dev): per-worker scheduler
// timelines plus the analysis/execution/commit pipeline tracks.
func (c *Chain) ExportTrace(w io.Writer) error {
	return telemetry.ExportChrome(w, c.log, c.ledger)
}

// BlockResult is the outcome of one committed block.
type BlockResult struct {
	Receipts []*Receipt
	Root     Hash
	// Block is the sealed block (header commitments filled); encode it with
	// EncodeBlock to gossip to other validators.
	Block *Block
	// Stats holds DMVCC scheduler counters (zero for other modes).
	Stats Stats
	// OCCAborts counts OCC re-executions (zero for other modes).
	OCCAborts int64
}

// EncodeBlock serializes a sealed block for the wire.
func EncodeBlock(b *Block) []byte { return types.EncodeBlock(b) }

// DecodeBlock parses a wire-encoded block, verifying its transaction root.
func DecodeBlock(enc []byte) (*Block, error) { return types.DecodeBlock(enc) }

// blockContextAt derives the environment of the block at a given height.
func (c *Chain) blockContextAt(height uint64) evm.BlockContext {
	return evm.BlockContext{
		Number:    height,
		Timestamp: 1_650_000_000 + height*12,
		GasLimit:  1_000_000_000,
		ChainID:   c.chainID,
	}
}

// blockContext derives the environment of the next block.
func (c *Chain) blockContext() evm.BlockContext {
	return c.blockContextAt(c.height)
}

// ExecuteBlock executes txs as the next block under the chosen scheme and
// commits the result. All schemes produce identical state roots
// (deterministic serializability — Theorem 1).
func (c *Chain) ExecuteBlock(mode Mode, txs []*Transaction) (*BlockResult, error) {
	c.eng.SetThreads(c.threads)
	blockCtx := c.blockContext()
	out, root, err := c.eng.ExecuteAndCommit(mode, blockCtx, txs)
	if err != nil {
		return nil, err
	}
	return c.sealResult(out, root, blockCtx, txs), nil
}

// sealResult assembles the committed block and advances the chain head.
func (c *Chain) sealResult(out *chain.ExecOut, root Hash, blockCtx evm.BlockContext, txs []*Transaction) *BlockResult {
	blk := types.SealBlock(c.lastHash, blockCtx.Number, blockCtx.Timestamp,
		blockCtx.GasLimit, blockCtx.Coinbase, root, txs)
	c.lastHash = blk.Header.Hash()
	c.height++
	return &BlockResult{
		Receipts:  out.Receipts,
		Root:      root,
		Block:     blk,
		Stats:     out.Stats,
		OCCAborts: out.Aborts,
	}
}

// ImportBlock validates a block produced by another chain instance:
// transaction root checked, transactions re-executed under mode, and the
// resulting state root compared with the header's commitment. On success
// the block is committed and the chain head advances.
func (c *Chain) ImportBlock(mode Mode, enc []byte) (*BlockResult, error) {
	blk, err := types.DecodeBlock(enc)
	if err != nil {
		return nil, err
	}
	if blk.Header.Number != c.height {
		return nil, fmt.Errorf("dmvcc: block %d does not extend height %d", blk.Header.Number, c.height)
	}
	c.eng.SetThreads(c.threads)
	receipts, err := c.eng.ValidateBlock(mode, blk)
	if err != nil {
		return nil, err
	}
	c.lastHash = blk.Header.Hash()
	c.height++
	return &BlockResult{
		Receipts: receipts,
		Root:     blk.Header.StateRoot,
		Block:    blk,
	}, nil
}

// StaticCall executes a read-only contract call against the committed state
// and returns the first return word. Nothing is committed.
func (c *Chain) StaticCall(from Address, contract *Contract, method string, args ...Word) (Word, error) {
	input, err := contract.CallData(method, args...)
	if err != nil {
		return Word{}, err
	}
	overlay := state.NewOverlay(c.db)
	vm := evm.New(state.NewVMAdapter(overlay), c.blockContext(), evm.TxContext{Origin: from})
	var zero Word
	ret, _, err := vm.Call(from, contract.Addr, input, 10_000_000, &zero)
	if err != nil {
		return Word{}, err
	}
	return u256.FromBytes(ret), nil
}

// Submit adds a transaction to the chain's pool; its state access graph is
// analyzed immediately against the latest snapshot (the paper's offline
// analysis on arrival, Fig. 2).
func (c *Chain) Submit(tx *Transaction) error {
	return c.pool.Add(tx)
}

// Pending returns the number of pooled transactions.
func (c *Chain) Pending() int { return c.pool.Len() }

// PackAndExecute forms the next block from up to max pooled transactions
// (arrival order), executes it under the chosen scheme — analysis-aware
// schedulers reuse the pool's cached C-SAGs, skipping re-analysis — and
// commits.
func (c *Chain) PackAndExecute(mode Mode, max int) (*BlockResult, error) {
	txs, csags := c.pool.Pack(max)
	blockCtx := c.blockContext()
	c.eng.SetThreads(c.threads)

	out, err := c.eng.ExecuteWith(mode, blockCtx, txs, csags)
	if err != nil {
		return nil, err
	}
	root, err := c.eng.Commit(out.WriteSet)
	if err != nil {
		return nil, err
	}
	return c.sealResult(out, root, blockCtx, txs), nil
}

// PackAndExecutePipelined drains the pool into up to blocks blocks of up to
// max transactions each and executes them as a pipeline: while block N
// executes, block N+1's C-SAG analysis runs concurrently (reusing the
// pool's cached analyses and refreshing stale ones off the critical path).
// Results — receipts, roots, sealed blocks — are identical to calling
// PackAndExecute once per block; the returned stats report how much
// analysis time the overlap hid.
func (c *Chain) PackAndExecutePipelined(mode Mode, max, blocks int) ([]*BlockResult, PipelineStats, error) {
	c.eng.SetThreads(c.threads)
	inputs := make([]chain.BlockInput, 0, blocks)
	for i := 0; i < blocks; i++ {
		blockCtx := c.blockContextAt(c.height + uint64(i))
		txs, csags := c.pool.PackForBlock(blockCtx, max)
		if len(txs) == 0 {
			break
		}
		inputs = append(inputs, chain.BlockInput{Block: blockCtx, Txs: txs, CSAGs: csags})
	}
	res, err := c.eng.ExecutePipelined(mode, inputs)
	if err != nil {
		return nil, PipelineStats{}, err
	}
	results := make([]*BlockResult, len(inputs))
	for i := range inputs {
		results[i] = c.sealResult(res.Outs[i], res.Roots[i], inputs[i].Block, inputs[i].Txs)
	}
	return results, res.Stats, nil
}

// NewTransfer builds a plain Ether transfer.
func NewTransfer(nonce uint64, from, to Address, amount uint64) *Transaction {
	return &Transaction{
		Nonce: nonce,
		From:  from,
		To:    to,
		Value: u256.NewUint64(amount),
		Gas:   21_000,
	}
}

// NewCall builds a contract-call transaction.
func NewCall(nonce uint64, from Address, contract *Contract, value uint64, method string, args ...Word) (*Transaction, error) {
	input, err := contract.CallData(method, args...)
	if err != nil {
		return nil, err
	}
	return &Transaction{
		Nonce: nonce,
		From:  from,
		To:    contract.Addr,
		Value: u256.NewUint64(value),
		Gas:   10_000_000,
		Data:  input,
	}, nil
}

// MustCall is NewCall for known-good arguments (examples, tests).
func MustCall(nonce uint64, from Address, contract *Contract, value uint64, method string, args ...Word) *Transaction {
	tx, err := NewCall(nonce, from, contract, value, method, args...)
	if err != nil {
		panic(err)
	}
	return tx
}
