package core

import (
	"dmvcc/internal/sag"
	"dmvcc/internal/telemetry"
	"dmvcc/internal/types"
)

// auditPredictions converts a block's C-SAGs into the auditor's neutral
// prediction records (one per transaction; unanalyzed slots stay empty with
// Analyzed=false).
func auditPredictions(n int, csags []*sag.CSAG) []telemetry.TxPrediction {
	preds := make([]telemetry.TxPrediction, n)
	for i := range preds {
		preds[i].Tx = i
		if i >= len(csags) || csags[i] == nil {
			continue
		}
		c := csags[i]
		preds[i].Analyzed = true
		preds[i].Reads = c.ReadSet()
		preds[i].Writes = c.WriteSet()
		preds[i].Deltas = c.DeltaSet()
		if out := c.Outcome; out != nil {
			preds[i].GasUsed = out.Receipt.GasUsed
			preds[i].Status = out.Receipt.Status.String()
		}
	}
	return preds
}

// auditAccessLogs derives each transaction's actual access sets from the
// committed incarnation's dependency trace (deduplicating repeat events per
// item) and its final receipt.
func auditAccessLogs(traces []*TxTrace, receipts []*types.Receipt) []telemetry.TxAccessLog {
	logs := make([]telemetry.TxAccessLog, len(traces))
	for i, t := range traces {
		logs[i].Tx = i
		if i < len(receipts) && receipts[i] != nil {
			logs[i].GasUsed = receipts[i].GasUsed
			logs[i].Status = receipts[i].Status.String()
		}
		if t == nil {
			continue
		}
		var reads, writes, deltas map[sag.ItemID]struct{}
		add := func(m *map[sag.ItemID]struct{}, id sag.ItemID) {
			if *m == nil {
				*m = make(map[sag.ItemID]struct{})
			}
			(*m)[id] = struct{}{}
		}
		for _, ev := range t.Events {
			switch ev.Kind {
			case TraceRead:
				add(&reads, ev.Item)
			case TraceWrite:
				add(&writes, ev.Item)
			case TraceDelta:
				add(&deltas, ev.Item)
			}
		}
		logs[i].Reads = sortedItems(reads)
		logs[i].Writes = sortedItems(writes)
		logs[i].Deltas = sortedItems(deltas)
	}
	return logs
}

// sortedItems flattens an item set deterministically.
func sortedItems(m map[sag.ItemID]struct{}) []sag.ItemID {
	if len(m) == 0 {
		return nil
	}
	out := make([]sag.ItemID, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sag.SortItems(out)
	return out
}
