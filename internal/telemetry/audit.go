package telemetry

import (
	"sort"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
)

// TxPrediction is one transaction's C-SAG as the auditor sees it: the
// predicted read/write/delta item sets plus the pre-run's advisory receipt.
// Analyzed is false when the transaction ran without a C-SAG (fully dynamic).
type TxPrediction struct {
	Tx       int
	Analyzed bool
	Reads    []sag.ItemID
	Writes   []sag.ItemID
	Deltas   []sag.ItemID
	GasUsed  uint64
	Status   string
}

// TxAccessLog is what the committed incarnation actually did: the deduped
// item sets of its dependency trace and its final receipt.
type TxAccessLog struct {
	Tx      int
	Reads   []sag.ItemID
	Writes  []sag.ItemID
	Deltas  []sag.ItemID
	GasUsed uint64
	Status  string
}

// SetAudit scores one predicted item set against the actual one.
// Precision = hits/predicted (how much of the prediction happened), recall =
// hits/actual (how much of reality was predicted). Empty denominators score
// a perfect 1 — predicting nothing and touching nothing is not an error.
type SetAudit struct {
	Predicted int     `json:"predicted"`
	Actual    int     `json:"actual"`
	Hits      int     `json:"hits"`
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
}

func (s *SetAudit) finish() {
	s.Precision, s.Recall = 1, 1
	if s.Predicted > 0 {
		s.Precision = float64(s.Hits) / float64(s.Predicted)
	}
	if s.Actual > 0 {
		s.Recall = float64(s.Hits) / float64(s.Actual)
	}
}

// add accumulates another audit into a block-level micro-average.
func (s *SetAudit) add(o SetAudit) {
	s.Predicted += o.Predicted
	s.Actual += o.Actual
	s.Hits += o.Hits
}

// TxAudit scores one transaction's C-SAG against its committed access log.
// Mispredicted means the analysis missed at least one actual access (any
// set's recall < 1) — the misses are what can surprise the scheduler into
// an abort; spurious predictions merely cost dropped versions.
type TxAudit struct {
	Tx       int  `json:"tx"`
	Analyzed bool `json:"analyzed"`

	Reads  SetAudit `json:"reads"`
	Writes SetAudit `json:"writes"`
	Deltas SetAudit `json:"deltas"`

	// Missed lists actual accesses absent from the prediction, Spurious the
	// predicted accesses that never happened (kind-prefixed item labels).
	Missed   []string `json:"missed,omitempty"`
	Spurious []string `json:"spurious,omitempty"`

	PredictedGas uint64 `json:"predicted_gas"`
	ActualGas    uint64 `json:"actual_gas"`
	GasMatch     bool   `json:"gas_match"`

	PredictedStatus string `json:"predicted_status"`
	ActualStatus    string `json:"actual_status"`
	StatusMatch     bool   `json:"status_match"`

	// Aborts counts incarnations of this transaction that were aborted.
	Aborts       int  `json:"aborts"`
	Mispredicted bool `json:"mispredicted"`
}

// AbortCorrelation cross-tabulates prediction quality against abort
// involvement: the 2×2 split of transactions by (mispredicted?, suffered an
// abort?), plus the attribution of each abort record to the prediction
// quality of its cause transaction.
type AbortCorrelation struct {
	MispredictedAborted int `json:"mispredicted_aborted"`
	MispredictedClean   int `json:"mispredicted_clean"`
	PredictedAborted    int `json:"predicted_aborted"`
	PredictedClean      int `json:"predicted_clean"`

	// AbortsCausedByMispredicted counts abort records whose cause
	// transaction was itself mispredicted — the aborts the analysis could
	// have prevented; AbortsCausedByPredicted the rest (scheduling races).
	AbortsCausedByMispredicted int `json:"aborts_caused_by_mispredicted"`
	AbortsCausedByPredicted    int `json:"aborts_caused_by_predicted"`
}

// BlockAudit is the block-level C-SAG accuracy report: micro-averaged
// precision/recall per access kind, the mispredicted-transaction count, and
// the mispredict→abort correlation table.
type BlockAudit struct {
	Block       int64 `json:"block"`
	Txs         int   `json:"txs"`
	AnalyzedTxs int   `json:"analyzed_txs"`

	Reads  SetAudit `json:"reads"`
	Writes SetAudit `json:"writes"`
	Deltas SetAudit `json:"deltas"`

	MispredictedTxs int `json:"mispredicted_txs"`
	GasMatches      int `json:"gas_matches"`
	StatusMatches   int `json:"status_matches"`

	Correlation AbortCorrelation `json:"correlation"`

	PerTx []TxAudit `json:"per_tx,omitempty"`
}

// auditSet scores predicted against actual items and appends the misses and
// spurious predictions as kind-prefixed labels.
func auditSet(kind string, predicted, actual []sag.ItemID, missed, spurious *[]string) SetAudit {
	pset := make(map[sag.ItemID]struct{}, len(predicted))
	for _, id := range predicted {
		pset[id] = struct{}{}
	}
	a := SetAudit{Predicted: len(predicted), Actual: len(actual)}
	aset := make(map[sag.ItemID]struct{}, len(actual))
	for _, id := range actual {
		aset[id] = struct{}{}
		if _, ok := pset[id]; ok {
			a.Hits++
		} else {
			*missed = append(*missed, kind+" "+id.Label())
		}
	}
	for _, id := range predicted {
		if _, ok := aset[id]; !ok {
			*spurious = append(*spurious, kind+" "+id.Label())
		}
	}
	a.finish()
	return a
}

// AuditTx scores one transaction. victimAborts is the number of this
// transaction's incarnations that aborted.
func AuditTx(pred TxPrediction, actual TxAccessLog, victimAborts int) TxAudit {
	ta := TxAudit{
		Tx:              pred.Tx,
		Analyzed:        pred.Analyzed,
		PredictedGas:    pred.GasUsed,
		ActualGas:       actual.GasUsed,
		PredictedStatus: pred.Status,
		ActualStatus:    actual.Status,
		Aborts:          victimAborts,
	}
	ta.Reads = auditSet("ρ", pred.Reads, actual.Reads, &ta.Missed, &ta.Spurious)
	ta.Writes = auditSet("ω", pred.Writes, actual.Writes, &ta.Missed, &ta.Spurious)
	ta.Deltas = auditSet("ω̄", pred.Deltas, actual.Deltas, &ta.Missed, &ta.Spurious)
	sort.Strings(ta.Missed)
	sort.Strings(ta.Spurious)
	ta.GasMatch = pred.GasUsed == actual.GasUsed
	ta.StatusMatch = pred.Status == actual.Status
	ta.Mispredicted = ta.Reads.Recall < 1 || ta.Writes.Recall < 1 || ta.Deltas.Recall < 1
	return ta
}

// AuditBlock scores every transaction of a block and aggregates. The abort
// correlation is read from the block's events: each abort event counts
// against its victim and attributes its cause transaction. preds and actuals
// are parallel, indexed by tx.
func AuditBlock(block int64, preds []TxPrediction, actuals []TxAccessLog, events []eventlog.Event) *BlockAudit {
	victimAborts := make(map[int]int)
	causeAborts := make(map[int]int)
	for _, ev := range events {
		if ev.Op != eventlog.OpAbort {
			continue
		}
		victimAborts[int(ev.Tx)]++
		if ev.Src >= 0 {
			causeAborts[int(ev.Src)]++
		}
	}
	ba := &BlockAudit{Block: block, Txs: len(actuals)}
	mispredicted := make(map[int]bool, len(preds))
	for i := range actuals {
		var pred TxPrediction
		if i < len(preds) {
			pred = preds[i]
		}
		pred.Tx = i
		ta := AuditTx(pred, actuals[i], victimAborts[i])
		ba.PerTx = append(ba.PerTx, ta)
		if ta.Analyzed {
			ba.AnalyzedTxs++
		}
		ba.Reads.add(ta.Reads)
		ba.Writes.add(ta.Writes)
		ba.Deltas.add(ta.Deltas)
		if ta.Mispredicted {
			ba.MispredictedTxs++
			mispredicted[i] = true
		}
		if ta.GasMatch {
			ba.GasMatches++
		}
		if ta.StatusMatch {
			ba.StatusMatches++
		}
		if victimAborts[i] > 0 {
			if ta.Mispredicted {
				ba.Correlation.MispredictedAborted++
			} else {
				ba.Correlation.PredictedAborted++
			}
		} else {
			if ta.Mispredicted {
				ba.Correlation.MispredictedClean++
			} else {
				ba.Correlation.PredictedClean++
			}
		}
	}
	ba.Reads.finish()
	ba.Writes.finish()
	ba.Deltas.finish()
	for tx, n := range causeAborts {
		if mispredicted[tx] {
			ba.Correlation.AbortsCausedByMispredicted += n
		} else {
			ba.Correlation.AbortsCausedByPredicted += n
		}
	}
	return ba
}

// BlockAuditOf returns the C-SAG accuracy audit the executor attached to the
// block, or nil.
func BlockAuditOf(b *eventlog.Block) *BlockAudit {
	if b == nil {
		return nil
	}
	for _, r := range b.Reports {
		if a, ok := r.(*BlockAudit); ok {
			return a
		}
	}
	return nil
}
