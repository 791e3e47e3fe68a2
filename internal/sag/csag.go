package sag

import (
	"fmt"
	"strings"

	"dmvcc/internal/evm"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// CSAG is the complete state access graph of one transaction: the P-SAG
// refined with concrete inputs and snapshot values. For scheduling, what
// matters is the classification of every touched item:
//
//   - Reads: items whose value the transaction observes from outside its
//     own write buffer (cross-transaction dependencies, ρ; θ when also
//     written).
//   - Writes: items the transaction writes absolutely (ω), with the number
//     of write events — used to decide at a release point whether an item
//     has received its last write and can be published early.
//   - Deltas: items only blind-incremented (ω̄, commutative), with their
//     event counts; delta entries of different transactions never conflict.
type CSAG struct {
	TxIndex int

	Reads  map[ItemID]struct{}
	Writes map[ItemID]int
	Deltas map[ItemID]int

	// Outcome is what the analysis pre-run computed, or nil when the C-SAG
	// did not come out of a pre-run (hand-built, or an altered copy).
	Outcome *Outcome
}

// Outcome is the result of the pre-run a C-SAG was refined by: the values its
// cross-transaction reads observed, the state it would commit and its
// receipt. EVM execution is a deterministic function of the transaction, the
// block context, the block position and the values those reads return, so an
// executor that resolves Reads to the same values under the same context may
// commit Writes, Deltas and Receipt without running the transaction again. An
// Outcome is immutable once built: a cached C-SAG is executed many times.
type Outcome struct {
	// Tx, Block and TxIndex are what the pre-run ran: the outcome says
	// nothing about another transaction, environment or position.
	Tx      *types.Transaction
	Block   evm.BlockContext
	TxIndex int

	Receipt *types.Receipt

	// Reads are the reads that left the transaction's own write buffer, in
	// execution order (an item degraded from delta mode appears at the read
	// that degraded it). Writes and Deltas are the final absolute values and
	// accumulated increments, in first-touch order.
	Reads  []Access
	Writes []Access
	Deltas []Access
}

// Access is one entry of an Outcome.
type Access struct {
	Item ItemID
	// Val is the value read, the final value written, or the summed
	// increment. For a code item it is what the DMVCC accessor keeps there:
	// zero for code read from the snapshot, the code hash for code installed.
	Val u256.Int
	// Code is the code read or installed (code items only).
	Code []byte
	// Offset is the gas consumed (core.TraceEvent units) when the pre-run
	// made the read, or last wrote the item.
	Offset uint64
}

// ValidFor reports whether the outcome was computed for exactly this
// transaction, block context and block position. A pool analyses under the
// context it expects the next block to carry, at position 0; the block the
// transaction is packed into need not match.
func (o *Outcome) ValidFor(tx *types.Transaction, block evm.BlockContext, idx int) bool {
	return o != nil && o.Tx == tx && o.TxIndex == idx && o.Block == block
}

// WithoutOutcome returns a shallow copy of the C-SAG that carries the same
// predictions but not the pre-run's outcome: what an altered graph must be,
// and how tests make every incarnation run the interpreter.
func (c *CSAG) WithoutOutcome() *CSAG {
	cc := *c
	cc.Outcome = nil
	return &cc
}

// NewCSAG returns an empty C-SAG for the given transaction index.
func NewCSAG(idx int) *CSAG {
	return &CSAG{
		TxIndex: idx,
		Reads:   make(map[ItemID]struct{}),
		Writes:  make(map[ItemID]int),
		Deltas:  make(map[ItemID]int),
	}
}

// Items returns every item the transaction is predicted to touch.
func (c *CSAG) Items() []ItemID {
	seen := make(map[ItemID]struct{}, len(c.Reads)+len(c.Writes)+len(c.Deltas))
	for id := range c.Reads {
		seen[id] = struct{}{}
	}
	for id := range c.Writes {
		seen[id] = struct{}{}
	}
	for id := range c.Deltas {
		seen[id] = struct{}{}
	}
	out := make([]ItemID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	SortItems(out)
	return out
}

// ReadSet returns the predicted read items in deterministic order —
// the diffable form of Reads, consumed by the accuracy auditor.
func (c *CSAG) ReadSet() []ItemID {
	return sortedSet(len(c.Reads), func(add func(ItemID)) {
		for id := range c.Reads {
			add(id)
		}
	})
}

// WriteSet returns the predicted absolute-write items in deterministic order.
func (c *CSAG) WriteSet() []ItemID {
	return sortedSet(len(c.Writes), func(add func(ItemID)) {
		for id := range c.Writes {
			add(id)
		}
	})
}

// DeltaSet returns the predicted commutative-delta items in deterministic order.
func (c *CSAG) DeltaSet() []ItemID {
	return sortedSet(len(c.Deltas), func(add func(ItemID)) {
		for id := range c.Deltas {
			add(id)
		}
	})
}

// sortedSet collects items from walk and sorts them.
func sortedSet(n int, walk func(add func(ItemID))) []ItemID {
	if n == 0 {
		return nil
	}
	out := make([]ItemID, 0, n)
	walk(func(id ItemID) { out = append(out, id) })
	SortItems(out)
	return out
}

// ReadsItem reports whether the transaction is predicted to read id.
func (c *CSAG) ReadsItem(id ItemID) bool {
	_, ok := c.Reads[id]
	return ok
}

// WritesItem reports whether the transaction is predicted to write id
// (absolutely or as a delta).
func (c *CSAG) WritesItem(id ItemID) bool {
	if _, ok := c.Writes[id]; ok {
		return true
	}
	_, ok := c.Deltas[id]
	return ok
}

// ConflictsWith reports whether two C-SAGs conflict per Definition 3:
// a read-write overlap on some item. Write-write overlaps do not conflict
// (write versioning), and delta-delta overlaps do not conflict
// (commutativity).
func (c *CSAG) ConflictsWith(other *CSAG) bool {
	for id := range c.Reads {
		if other.WritesItem(id) {
			return true
		}
	}
	for id := range other.Reads {
		if c.WritesItem(id) {
			return true
		}
	}
	return false
}

// String renders the access sets compactly.
func (c *CSAG) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "C-SAG tx %d:", c.TxIndex)
	for id := range c.Reads {
		fmt.Fprintf(&sb, " ρ(%s)", id)
	}
	for id, n := range c.Writes {
		fmt.Fprintf(&sb, " ω(%s)x%d", id, n)
	}
	for id, n := range c.Deltas {
		fmt.Fprintf(&sb, " ω̄(%s)x%d", id, n)
	}
	return sb.String()
}
