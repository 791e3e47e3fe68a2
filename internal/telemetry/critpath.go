package telemetry

import (
	"fmt"
	"strings"
	"time"

	"dmvcc/internal/eventlog"
)

// PathHop is one link of the critical path: transaction Tx ran for RunNs of
// scheduler time and, if WaitNs > 0, first waited WaitNs parked on Item
// until transaction BlockedOn published it.
type PathHop struct {
	Tx        int    `json:"tx"`
	RunNs     int64  `json:"run_ns"`
	WaitNs    int64  `json:"wait_ns"`
	Item      string `json:"item,omitempty"`
	BlockedOn int    `json:"blocked_on,omitempty"`
}

// CriticalPath is the longest dependency chain bounding one block's
// makespan: the backward walk from the last-committing transaction through
// the waits that delayed it.
type CriticalPath struct {
	Block      int64 `json:"block"`
	MakespanNs int64 `json:"makespan_ns"`
	// PathNs is the portion of the makespan the chain accounts for: the
	// window from the chain's earliest dispatch to its final commit.
	// Always <= MakespanNs; per-hop run and wait intervals overlap along
	// a dependency chain, so they are not summed.
	PathNs int64     `json:"path_ns"`
	Hops   []PathHop `json:"hops"`
}

// BlockCriticalPath analyzes one block's event log and returns the
// dependency chain that bounds its makespan: starting from the transaction
// whose commit ended the block, each hop follows the latest-resolving wait
// back to the transaction that published the version the waiter parked on.
// Transactions that never waited terminate the chain. Returns nil when the
// block is nil or has no commit events.
func BlockCriticalPath(b *eventlog.Block) *CriticalPath {
	if b == nil {
		return nil
	}
	events := b.Events
	type txInfo struct {
		inc      int32 // final (committed) incarnation
		dispatch int64
		commit   int64
		runNs    int64
		// waits of the final incarnation: resume events carrying the
		// blocking writer and item.
		waits []eventlog.Event
	}
	infos := map[int32]*txInfo{}
	info := func(tx int32) *txInfo {
		ti, ok := infos[tx]
		if !ok {
			ti = &txInfo{inc: -1}
			infos[tx] = ti
		}
		return ti
	}
	// The committed incarnation is the highest one that committed.
	for _, ev := range events {
		if ev.Op == eventlog.OpCommit {
			if ti := info(ev.Tx); ev.Inc > ti.inc {
				ti.inc = ev.Inc
				ti.commit = ev.TS
			}
		}
	}
	// Accumulate running time and waits of each final incarnation.
	openTS := map[int32]int64{}
	for _, ev := range events {
		ti := infos[ev.Tx]
		if ti == nil || ev.Inc != ti.inc {
			continue
		}
		switch ev.Op {
		case eventlog.OpDispatch:
			ti.dispatch = ev.TS
			openTS[ev.Tx] = ev.TS
		case eventlog.OpResume:
			openTS[ev.Tx] = ev.TS
			ti.waits = append(ti.waits, ev)
		case eventlog.OpPark, eventlog.OpCommit:
			if start, ok := openTS[ev.Tx]; ok {
				ti.runNs += ev.TS - start
				delete(openTS, ev.Tx)
			}
		}
	}

	var lastTx int32
	var lastCommit, firstDispatch int64 = -1, -1
	for tx, ti := range infos {
		if ti.inc < 0 {
			continue
		}
		if ti.commit > lastCommit {
			lastCommit, lastTx = ti.commit, tx
		}
		if firstDispatch < 0 || ti.dispatch < firstDispatch {
			firstDispatch = ti.dispatch
		}
	}
	if lastCommit < 0 {
		return nil
	}

	cp := &CriticalPath{Block: b.Number, MakespanNs: lastCommit - firstDispatch}
	visited := map[int32]bool{}
	tx := lastTx
	for !visited[tx] {
		visited[tx] = true
		ti := infos[tx]
		if ti == nil || ti.inc < 0 {
			break
		}
		hop := PathHop{Tx: int(tx), RunNs: ti.runNs}
		// Follow the wait that resolved last — the one that actually
		// delayed this transaction's completion.
		var latest *eventlog.Event
		for i := range ti.waits {
			if latest == nil || ti.waits[i].TS > latest.TS {
				latest = &ti.waits[i]
			}
		}
		if latest != nil {
			hop.Item = itemLabel(latest.Item)
			hop.BlockedOn = int(latest.Src)
			// Wait attributed to this hop: from the incarnation's park on
			// that item to the resume.
			hop.WaitNs = latest.TS - ti.dispatch
			for _, ev := range events {
				if ev.Tx == tx && ev.Inc == ti.inc && ev.Op == eventlog.OpPark && ev.TS <= latest.TS {
					hop.WaitNs = latest.TS - ev.TS
				}
			}
		}
		cp.Hops = append(cp.Hops, hop)
		if latest == nil {
			break
		}
		tx = latest.Src
	}
	// Reverse: report chain from root to the last-committing transaction.
	for i, j := 0, len(cp.Hops)-1; i < j; i, j = i+1, j-1 {
		cp.Hops[i], cp.Hops[j] = cp.Hops[j], cp.Hops[i]
	}
	// The chain's share of the makespan is the window it was active in:
	// earliest dispatch among its hops to the final commit. A hop's final
	// incarnation can dispatch late (after an abort), so the root alone
	// would understate the window.
	chainStart := lastCommit
	for _, h := range cp.Hops {
		if ti := infos[int32(h.Tx)]; ti != nil && ti.dispatch > 0 && ti.dispatch < chainStart {
			chainStart = ti.dispatch
		}
	}
	cp.PathNs = lastCommit - chainStart
	return cp
}

// Render formats the critical path for terminal output.
func (cp *CriticalPath) Render() string {
	if cp == nil {
		return "critical path: no committed transactions in trace\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "critical path of block %d: makespan %v, chain of %d txs covers %v (%.0f%%)\n",
		cp.Block, time.Duration(cp.MakespanNs).Round(time.Microsecond),
		len(cp.Hops), time.Duration(cp.PathNs).Round(time.Microsecond),
		100*float64(cp.PathNs)/float64(max64(cp.MakespanNs, 1)))
	for i, h := range cp.Hops {
		if h.WaitNs > 0 {
			fmt.Fprintf(&sb, "  %2d. tx%-5d ran %-10v waited %-10v on %s (published by tx%d)\n",
				i+1, h.Tx, time.Duration(h.RunNs).Round(time.Microsecond),
				time.Duration(h.WaitNs).Round(time.Microsecond), h.Item, h.BlockedOn)
		} else {
			fmt.Fprintf(&sb, "  %2d. tx%-5d ran %-10v (chain root, never parked)\n",
				i+1, h.Tx, time.Duration(h.RunNs).Round(time.Microsecond))
		}
	}
	return sb.String()
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
