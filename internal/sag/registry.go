package sag

import (
	"sync"

	"dmvcc/internal/cfg"
	"dmvcc/internal/evm"
	"dmvcc/internal/minisol"
	"dmvcc/internal/types"
)

// Watch flags: why the scheduler wants the interpreter to stop at a pc. A
// contract's watch table (ContractInfo.Watch) holds one flag byte per pc and
// is zero wherever neither the analyzer nor the DMVCC accessor has anything
// to do, which is most of any contract: arithmetic, stack shuffling, memory
// and jumps run without a hook call.
const (
	// WatchEntry marks pc 0: the first stop of every frame, where the top
	// frame's starting gas is taken.
	WatchEntry byte = 1 << iota
	// WatchAccess marks every instruction that goes through evm.State
	// (SLOAD, SSTORE, BALANCE, SELFBALANCE, CALL): the gas offset of a trace
	// event is the offset at the last stop, so it is exact only if every
	// access is one.
	WatchAccess
	// WatchCommLoad and WatchCommStore mark the SLOAD/SSTORE pair of a
	// compiler-reported blind increment; the hook arms delta mode there.
	WatchCommLoad
	WatchCommStore
	// WatchRelease marks the pcs where buffered writes can first become
	// publishable (Algorithm 2): the first released pc of a basic block —
	// its start, or the instruction after its last abortable one — and the
	// instruction after an SSTORE inside an already released stretch.
	WatchRelease
	// WatchLoop marks loop headers (targets of CFG back edges), so an
	// incarnation aborted while spinning in a storage-free loop notices
	// within one iteration instead of at out-of-gas.
	WatchLoop
)

// ContractInfo caches the static analyses of one contract's bytecode: its
// CFG with release-point facts, and the compiler-reported commutative
// increment sites. It corresponds to the P-SAG the paper constructs once
// per contract.
type ContractInfo struct {
	CodeHash types.Hash
	Code     []byte
	Analysis *cfg.Analysis

	// Watch is the per-pc watch table handed to the interpreter (see the
	// Watch* flags): hooks run only where it is non-zero.
	Watch []byte

	// ReleasedAt and GasBoundAt are the per-pc release-point facts
	// (indexed by pc), precomputed so the interpreter hook is O(1).
	ReleasedAt []bool
	GasBoundAt []uint64
}

// WatchAt returns the watch flags of pc (zero past the end of the code).
func (ci *ContractInfo) WatchAt(pc uint64) byte {
	if pc >= uint64(len(ci.Watch)) {
		return 0
	}
	return ci.Watch[pc]
}

// Released reports whether pc is a release point of this contract with the
// given remaining gas (release-point membership and the Algorithm 2 line 1
// gas check combined).
func (ci *ContractInfo) Released(pc uint64, gasLeft uint64) bool {
	if pc >= uint64(len(ci.ReleasedAt)) {
		return false
	}
	return ci.ReleasedAt[pc] && gasLeft >= ci.GasBoundAt[pc]
}

// Registry caches per-contract static analysis, shared by the analyzer and
// every scheduler. It is safe for concurrent use.
type Registry struct {
	mu     sync.RWMutex
	byAddr map[types.Address]*ContractInfo
	byHash map[types.Hash]*ContractInfo
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byAddr: make(map[types.Address]*ContractInfo),
		byHash: make(map[types.Hash]*ContractInfo),
	}
}

// Register records a deployed contract's code and commutative sites and
// runs (or reuses) the static analysis. Safe to call repeatedly.
func (r *Registry) Register(addr types.Address, code []byte, comm []minisol.CommSite) *ContractInfo {
	h := types.Keccak(code)
	r.mu.Lock()
	defer r.mu.Unlock()
	if info, ok := r.byHash[h]; ok {
		r.byAddr[addr] = info
		return info
	}
	info := &ContractInfo{
		CodeHash: h,
		Code:     code,
		Analysis: cfg.Analyze(code),
	}
	info.ReleasedAt = make([]bool, len(code))
	info.GasBoundAt = make([]uint64, len(code))
	for pc := range code {
		info.ReleasedAt[pc] = info.Analysis.Released(uint64(pc))
		info.GasBoundAt[pc] = info.Analysis.GasBound(uint64(pc))
	}
	info.Watch = watchTable(info, comm)
	r.byHash[h] = info
	r.byAddr[addr] = info
	return info
}

// watchTable marks the pcs of info's code at which a hook has work to do.
func watchTable(info *ContractInfo, comm []minisol.CommSite) []byte {
	w := make([]byte, len(info.Code))
	if len(w) == 0 {
		return w
	}
	w[0] |= WatchEntry
	g := info.Analysis.Graph()
	for _, start := range g.Order {
		// A block is released from its last abortable instruction onwards, so
		// the first released pc is the only one with an unreleased predecessor.
		prevReleased, prevStore := false, false
		for _, ins := range g.Blocks[start].Instrs {
			switch ins.Op {
			case evm.SLOAD, evm.SSTORE, evm.BALANCE, evm.SELFBALANCE, evm.CALL:
				w[ins.PC] |= WatchAccess
			}
			released := info.ReleasedAt[ins.PC]
			if released && (!prevReleased || prevStore) {
				w[ins.PC] |= WatchRelease
			}
			prevReleased, prevStore = released, ins.Op == evm.SSTORE
		}
	}
	for _, edge := range g.BackEdges() {
		w[edge[1]] |= WatchLoop
	}
	for _, site := range comm {
		if site.LoadPC < uint64(len(w)) && site.StorePC < uint64(len(w)) {
			w[site.LoadPC] |= WatchCommLoad
			w[site.StorePC] |= WatchCommStore
		}
	}
	return w
}

// RegisterCompiled registers a compiled minisol contract at addr.
func (r *Registry) RegisterCompiled(addr types.Address, c *minisol.Compiled) *ContractInfo {
	return r.Register(addr, c.Code, c.Commutative)
}

// Lookup returns the analysis for the contract at addr, or nil if the
// address is unknown (e.g. a contract deployed mid-block or received from a
// peer without a cached SAG — the scheduler then falls back to fully
// dynamic handling, as the paper's workflow allows).
func (r *Registry) Lookup(addr types.Address) *ContractInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.byAddr[addr]
}

// Memo is a one-entry cache in front of Registry.Lookup (an RWMutex and a
// map hit) for a caller that asks about the same address many times in a
// row, as an interpreter hook does within one call frame. The zero value is
// empty; a Memo is not safe for concurrent use and must be cleared when its
// owner moves to another registry or block.
type Memo struct {
	addr types.Address
	info *ContractInfo
	ok   bool
}

// Lookup is reg.Lookup(addr) through the memo.
func (m *Memo) Lookup(reg *Registry, addr types.Address) *ContractInfo {
	if !m.ok || m.addr != addr {
		m.addr, m.info, m.ok = addr, reg.Lookup(addr), true
	}
	return m.info
}
