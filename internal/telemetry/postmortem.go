package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"dmvcc/internal/eventlog"
)

// PostMortemSchema versions the post-mortem JSON layout.
const PostMortemSchema = "dmvcc/postmortem/v1"

// maxHotKeys caps the ranked hot-key table; TotalItems preserves the full
// count so truncation is never silent.
const maxHotKeys = 32

// HotKey is one ranked entry of the contention table: an item label plus its
// traffic profile.
type HotKey struct {
	Item string `json:"item"`
	ItemProfile
}

// CascadeNode is one aborted incarnation within a cascade tree.
type CascadeNode struct {
	AbortRecord
	Children []*CascadeNode `json:"children,omitempty"`
}

// CascadeTree is one materialized abort cascade: the root victim (whose
// stale read the triggering publish invalidated) with the collateral
// victims nested under the victim whose dropped versions they had read.
// WastedGas is the per-root attribution: everything the whole cascade threw
// away, charged to its root cause.
type CascadeTree struct {
	ID      int `json:"id"`
	CauseTx int `json:"cause_tx"`
	// Aborts is the node count; the sum over all trees of a block equals
	// Stats.Aborts exactly (one abort event per bump of the counter).
	Aborts    int          `json:"aborts"`
	Depth     int          `json:"depth"`
	WastedGas uint64       `json:"wasted_gas"`
	Root      *CascadeNode `json:"root"`
}

// PostMortem is the unified block report: contention hot keys, abort
// forensics as cascade trees, and the C-SAG accuracy audit.
type PostMortem struct {
	Schema string `json:"schema"`
	Block  int64  `json:"block"`
	Txs    int    `json:"txs"`

	Aborts    int    `json:"aborts"`
	WastedGas uint64 `json:"wasted_gas"`
	// AbortClasses counts abort records per cause classification.
	AbortClasses map[string]int `json:"abort_classes,omitempty"`

	// TotalItems is the number of distinct items touched; HotKeys ranks the
	// hottest maxHotKeys of them (aborts, then blocked reads, then traffic).
	TotalItems int      `json:"total_items"`
	HotKeys    []HotKey `json:"hot_keys,omitempty"`

	Cascades []CascadeTree `json:"cascades,omitempty"`

	Audit *BlockAudit `json:"audit,omitempty"`

	// Degraded is the circuit-breaker reason when the block fell back to
	// serial execution mid-flight ("" = completed in parallel).
	Degraded string `json:"degraded,omitempty"`
	// Stalls counts watchdog no-progress detections during the block.
	Stalls int `json:"stalls,omitempty"`
}

// buildCascades groups abort records into trees. Records of one cascade
// share the Cascade id; each non-root node hangs off the most recent record
// of its Parent transaction within the cascade.
func buildCascades(records []AbortRecord) []CascadeTree {
	byID := make(map[int][]AbortRecord)
	var ids []int
	for _, rec := range records {
		if _, ok := byID[rec.Cascade]; !ok {
			ids = append(ids, rec.Cascade)
		}
		byID[rec.Cascade] = append(byID[rec.Cascade], rec)
	}
	sort.Ints(ids)

	var trees []CascadeTree
	for _, id := range ids {
		recs := byID[id]
		sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
		nodes := make([]*CascadeNode, len(recs))
		lastOfTx := make(map[int]*CascadeNode)
		tree := CascadeTree{ID: id, CauseTx: -1}
		for i, rec := range recs {
			nodes[i] = &CascadeNode{AbortRecord: rec}
			tree.Aborts++
			tree.WastedGas += rec.WastedGas
		}
		for i, rec := range recs {
			if rec.Parent < 0 {
				if tree.Root == nil {
					tree.Root = nodes[i]
					tree.CauseTx = rec.CauseTx
				} else {
					// Defensive: a second root joins under the first so no
					// record is ever dropped from the accounting.
					tree.Root.Children = append(tree.Root.Children, nodes[i])
				}
			} else if p, ok := lastOfTx[rec.Parent]; ok {
				p.Children = append(p.Children, nodes[i])
			} else if tree.Root != nil {
				tree.Root.Children = append(tree.Root.Children, nodes[i])
			} else {
				tree.Root = nodes[i]
				tree.CauseTx = rec.CauseTx
			}
			lastOfTx[rec.Tx] = nodes[i]
		}
		var depth func(n *CascadeNode) int
		depth = func(n *CascadeNode) int {
			d := 1
			for _, c := range n.Children {
				if cd := depth(c) + 1; cd > d {
					d = cd
				}
			}
			return d
		}
		if tree.Root != nil {
			tree.Depth = depth(tree.Root)
		}
		trees = append(trees, tree)
	}
	return trees
}

// BlockPostMortem assembles a block's unified report from its event log, or
// nil when the block was not recorded (or has been evicted).
func BlockPostMortem(b *eventlog.Block) *PostMortem {
	if b == nil {
		return nil
	}
	records := AbortRecords(b.Events)
	items := ItemProfiles(b.Events)
	pm := &PostMortem{
		Schema:     PostMortemSchema,
		Block:      b.Number,
		Txs:        b.Txs,
		Aborts:     len(records),
		TotalItems: len(items),
		Audit:      BlockAuditOf(b),
		Degraded:   b.Degraded,
		Stalls:     len(Stalls(b)),
	}
	if len(records) > 0 {
		pm.AbortClasses = make(map[string]int)
		for _, rec := range records {
			pm.AbortClasses[rec.Class.String()]++
			pm.WastedGas += rec.WastedGas
		}
	}
	keys := make([]HotKey, 0, len(items))
	for id, p := range items {
		keys = append(keys, HotKey{Item: forensicLabel(id), ItemProfile: *p})
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Aborts != b.Aborts {
			return a.Aborts > b.Aborts
		}
		if a.BlockedReads != b.BlockedReads {
			return a.BlockedReads > b.BlockedReads
		}
		if aa, ba := a.Accesses(), b.Accesses(); aa != ba {
			return aa > ba
		}
		return a.Item < b.Item
	})
	if len(keys) > maxHotKeys {
		keys = keys[:maxHotKeys]
	}
	pm.HotKeys = keys
	pm.Cascades = buildCascades(records)
	return pm
}

// Render formats the post-mortem for terminal output.
func (pm *PostMortem) Render() string {
	if pm == nil {
		return "post-mortem: no forensics collected\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "post-mortem of block %d: %d txs, %d aborts, %d wasted gas\n",
		pm.Block, pm.Txs, pm.Aborts, pm.WastedGas)
	if pm.Degraded != "" {
		fmt.Fprintf(&sb, "  DEGRADED to serial baseline: %s\n", pm.Degraded)
	}
	if pm.Stalls > 0 {
		fmt.Fprintf(&sb, "  watchdog stall detections: %d\n", pm.Stalls)
	}
	if len(pm.AbortClasses) > 0 {
		classes := make([]string, 0, len(pm.AbortClasses))
		for c := range pm.AbortClasses {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		sb.WriteString("  abort causes:")
		for _, c := range classes {
			fmt.Fprintf(&sb, " %s=%d", c, pm.AbortClasses[c])
		}
		sb.WriteString("\n")
	}
	if len(pm.HotKeys) > 0 {
		fmt.Fprintf(&sb, "  hot keys (%d of %d items):\n", len(pm.HotKeys), pm.TotalItems)
		fmt.Fprintf(&sb, "    %-26s %8s %8s %8s %8s %8s %8s\n",
			"item", "reads", "blocked", "writes", "early", "deltas", "aborts")
		for _, k := range pm.HotKeys {
			fmt.Fprintf(&sb, "    %-26s %8d %8d %8d %8d %8d %8d\n",
				k.Item, k.Reads, k.BlockedReads, k.Writes, k.EarlyPublishes, k.DeltaMerges, k.Aborts)
		}
	}
	if len(pm.Cascades) > 0 {
		fmt.Fprintf(&sb, "  cascades (%d):\n", len(pm.Cascades))
		for _, c := range pm.Cascades {
			fmt.Fprintf(&sb, "    cascade %d: caused by tx%d, %d aborts, depth %d, %d wasted gas\n",
				c.ID, c.CauseTx, c.Aborts, c.Depth, c.WastedGas)
			var walk func(n *CascadeNode, indent string)
			walk = func(n *CascadeNode, indent string) {
				src := "snapshot"
				if n.ReadSrcTx >= 0 {
					src = fmt.Sprintf("tx%d's version", n.ReadSrcTx)
				}
				fmt.Fprintf(&sb, "%stx%d/inc%d: read %s of %s, invalidated by tx%d/inc%d (%s, %d gas wasted)\n",
					indent, n.Tx, n.Inc, src, n.ItemLabel, n.CauseTx, n.WriterInc, n.Class, n.WastedGas)
				for _, ch := range n.Children {
					walk(ch, indent+"  ")
				}
			}
			if c.Root != nil {
				walk(c.Root, "      ")
			}
		}
	}
	if a := pm.Audit; a != nil {
		fmt.Fprintf(&sb, "  C-SAG audit: %d/%d txs analyzed, %d mispredicted\n",
			a.AnalyzedTxs, a.Txs, a.MispredictedTxs)
		fmt.Fprintf(&sb, "    reads  precision %.3f recall %.3f (%d pred / %d actual)\n",
			a.Reads.Precision, a.Reads.Recall, a.Reads.Predicted, a.Reads.Actual)
		fmt.Fprintf(&sb, "    writes precision %.3f recall %.3f (%d pred / %d actual)\n",
			a.Writes.Precision, a.Writes.Recall, a.Writes.Predicted, a.Writes.Actual)
		fmt.Fprintf(&sb, "    deltas precision %.3f recall %.3f (%d pred / %d actual)\n",
			a.Deltas.Precision, a.Deltas.Recall, a.Deltas.Predicted, a.Deltas.Actual)
		fmt.Fprintf(&sb, "    gas predictions exact for %d/%d, status for %d/%d\n",
			a.GasMatches, a.Txs, a.StatusMatches, a.Txs)
		c := a.Correlation
		fmt.Fprintf(&sb, "    mispredict→abort: %d mispredicted txs aborted, %d clean; %d well-predicted aborted, %d clean\n",
			c.MispredictedAborted, c.MispredictedClean, c.PredictedAborted, c.PredictedClean)
		if n := c.AbortsCausedByMispredicted + c.AbortsCausedByPredicted; n > 0 {
			fmt.Fprintf(&sb, "    of %d aborts, %d were caused by mispredicted txs, %d by well-predicted ones\n",
				n, c.AbortsCausedByMispredicted, c.AbortsCausedByPredicted)
		}
	}
	return sb.String()
}
