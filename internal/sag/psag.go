package sag

import (
	"fmt"
	"sort"
	"strings"

	"dmvcc/internal/cfg"
)

// PSAG is the partial state access graph of one contract: the statically
// known structure of its state accesses. Keys that depend on runtime data
// appear as placeholders ("ρ(−)" / "ω(−)" in the paper's Fig. 3); loops
// that cannot be unrolled statically appear as loop nodes; release points
// mark where no abortable statement remains.
type PSAG struct {
	Info     *ContractInfo
	Accesses []cfg.StaticAccess
	Loops    [][2]uint64

	// ReleasePCs are the earliest release points: pcs whose remaining
	// execution contains no abortable instruction while their predecessors'
	// does. Each carries the static remaining-gas upper bound.
	ReleasePCs map[uint64]uint64
}

// BuildPSAG derives the P-SAG from a registered contract's analysis.
func BuildPSAG(info *ContractInfo) *PSAG {
	p := &PSAG{
		Info:       info,
		Accesses:   info.Analysis.Graph().StaticAccesses(),
		Loops:      info.Analysis.Graph().BackEdges(),
		ReleasePCs: make(map[uint64]uint64),
	}
	// Earliest release points: for every block, the first pc p in the block
	// with Released(p) whose predecessor pc (if any) is not released.
	g := info.Analysis.Graph()
	for _, start := range g.Order {
		b := g.Blocks[start]
		prevReleased := false
		for i, ins := range b.Instrs {
			rel := info.Analysis.Released(ins.PC)
			if rel && (!prevReleased || i == 0) {
				p.ReleasePCs[ins.PC] = info.Analysis.GasBound(ins.PC)
			}
			prevReleased = rel
		}
	}
	return p
}

// Format renders the P-SAG as a readable listing (for the sag-dump tool).
func (p *PSAG) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "P-SAG for contract code %s (%d bytes)\n",
		p.Info.CodeHash.Hex()[:18], len(p.Info.Code))

	fmt.Fprintf(&sb, "\nstate accesses (%d):\n", len(p.Accesses))
	for _, a := range p.Accesses {
		sym := "ρ"
		if a.Write {
			sym = "ω"
		}
		key := "−" // placeholder: resolved only with transaction data
		if a.Known {
			key = a.Slot.Hex()
		}
		comm := ""
		if a.Write && p.Info.WatchAt(a.PC)&WatchCommStore != 0 {
			comm = "  [commutative ω̄]"
		} else if !a.Write && p.Info.WatchAt(a.PC)&WatchCommLoad != 0 {
			comm = "  [commutative ω̄ base]"
		}
		fmt.Fprintf(&sb, "  pc %04x: %s(%s)%s\n", a.PC, sym, key, comm)
	}

	fmt.Fprintf(&sb, "\nloop nodes (%d):\n", len(p.Loops))
	for _, l := range p.Loops {
		fmt.Fprintf(&sb, "  back edge %04x -> %04x (unrolled in C-SAG)\n", l[0], l[1])
	}

	pcs := make([]uint64, 0, len(p.ReleasePCs))
	for pc := range p.ReleasePCs {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	fmt.Fprintf(&sb, "\nrelease points (%d):\n", len(pcs))
	for _, pc := range pcs {
		bound := p.ReleasePCs[pc]
		if bound == cfg.GasUnbounded {
			fmt.Fprintf(&sb, "  pc %04x: gas bound unbounded (loop ahead)\n", pc)
		} else {
			fmt.Fprintf(&sb, "  pc %04x: gas bound %d\n", pc, bound)
		}
	}

	// How sparse the interpreter's stops are (ContractInfo.Watch).
	var instrs, stops int
	classes := map[byte]int{}
	for _, start := range p.Info.Analysis.Graph().Order {
		for _, ins := range p.Info.Analysis.Graph().Blocks[start].Instrs {
			instrs++
			w := p.Info.WatchAt(ins.PC)
			if w != 0 {
				stops++
			}
			for _, f := range []byte{WatchEntry, WatchAccess, WatchCommLoad, WatchCommStore, WatchRelease, WatchLoop} {
				if w&f != 0 {
					classes[f]++
				}
			}
		}
	}
	fmt.Fprintf(&sb, "\nwatch table: %d of %d instructions stop the interpreter (entry %d, state access %d, commutative %d, release %d, loop header %d)\n",
		stops, instrs, classes[WatchEntry], classes[WatchAccess],
		classes[WatchCommLoad]+classes[WatchCommStore], classes[WatchRelease], classes[WatchLoop])
	return sb.String()
}
