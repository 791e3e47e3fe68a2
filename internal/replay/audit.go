package replay

import (
	"fmt"

	"dmvcc/internal/baseline"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/state"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

// DivergenceSchema versions the on-disk divergence report format.
const DivergenceSchema = "dmvcc/divergence/v1"

// Mismatch is one audited difference between the parallel schedule and the
// serial twin. Tx is -1 for block-level (final-state) mismatches.
type Mismatch struct {
	Tx   int    `json:"tx"`
	Kind string `json:"kind"` // receipt-status | receipt-gas | read-value | read-set | write-value | delta-sum | final-state
	Item string `json:"item,omitempty"`
	Got  string `json:"got"`
	Want string `json:"want"`
	// Src is the writer transaction the parallel schedule resolved a
	// diverging read from (-1 = committed snapshot); only set for
	// read-value mismatches.
	Src int `json:"src,omitempty"`
}

// DivergenceReport is the auditor's verdict on one diverging block:
// where the parallel schedule first stopped being serial-equivalent.
type DivergenceReport struct {
	Schema       string `json:"schema"`
	Recipe       Recipe `json:"recipe"`
	SerialRoot   string `json:"serial_root"`
	ParallelRoot string `json:"parallel_root"`
	// FirstDivergentTx is the lowest-indexed transaction whose observed
	// reads, writes or receipt differ from the serial twin (-1 when only a
	// block-level final-state difference was found).
	FirstDivergentTx int        `json:"first_divergent_tx"`
	Mismatches       []Mismatch `json:"mismatches"`
	// Events is the total recorded schedule length (diagnostic).
	Events int `json:"events"`
	// MinimizedTxs is the transaction subset of the shrunken repro (empty
	// when shrinking was not run or did not reduce the block).
	MinimizedTxs []int  `json:"minimized_txs,omitempty"`
	CaptureFile  string `json:"capture_file,omitempty"`
	Note         string `json:"note,omitempty"`
}

// txView is the per-transaction view the auditor reconstructs from the
// committed incarnation's recorded events.
type txView struct {
	commitInc int
	reads     map[sag.ItemID]eventlog.Event // first read per item
	writes    map[sag.ItemID]u256.Int       // last published absolute value
	deltas    map[sag.ItemID]u256.Int       // summed delta contributions
}

// buildViews folds the event log into per-transaction views of the
// committed incarnations. Events of aborted incarnations are ignored: the
// audit judges what the block actually committed.
func buildViews(events []eventlog.Event, n int) []txView {
	views := make([]txView, n)
	for i := range views {
		views[i].commitInc = -1
	}
	for _, e := range events {
		if e.Op == eventlog.OpCommit && int(e.Tx) >= 0 && int(e.Tx) < n {
			views[e.Tx].commitInc = int(e.Inc)
		}
	}
	for _, e := range events {
		tx := int(e.Tx)
		if tx < 0 || tx >= n {
			continue
		}
		v := &views[tx]
		if int(e.Inc) != v.commitInc {
			continue
		}
		switch e.Op {
		case eventlog.OpRead:
			if v.reads == nil {
				v.reads = make(map[sag.ItemID]eventlog.Event)
			}
			if _, ok := v.reads[e.Item]; !ok {
				v.reads[e.Item] = e
			}
		case eventlog.OpPublish:
			if v.writes == nil {
				v.writes = make(map[sag.ItemID]u256.Int)
			}
			v.writes[e.Item] = e.Val // last write wins
		case eventlog.OpDelta:
			if v.deltas == nil {
				v.deltas = make(map[sag.ItemID]u256.Int)
			}
			sum := v.deltas[e.Item]
			sum.Add(&sum, &e.Val)
			v.deltas[e.Item] = sum
		}
	}
	return views
}

// wsValue extracts the written value of one item from a write set.
// Code items return false: code bytes are compared by set membership only.
func wsValue(ws *state.WriteSet, id sag.ItemID) (u256.Int, bool) {
	if ws == nil {
		return u256.Int{}, false
	}
	switch id.Kind {
	case sag.KindBalance:
		v, ok := ws.Balances[id.Addr]
		return v, ok
	case sag.KindNonce:
		v, ok := ws.Nonces[id.Addr]
		return u256.NewUint64(v), ok
	case sag.KindStorage:
		if m, ok := ws.Storage[id.Addr]; ok {
			v, ok := m[id.Slot]
			return v, ok
		}
	}
	return u256.Int{}, false
}

// Audit diffs a recorded parallel block execution against its serial twin,
// transaction by transaction, and reports every mismatch: receipt outcome,
// the value and source of each cross-transaction read, each final written
// value, and delta-sum equivalence for commutatively updated items. pre
// reads an item's value in the block's pre-state (used to track the serial
// running value for delta items); parallelWS is the parallel execution's
// committed write set, diffed block-level as a safety net when every per-tx
// comparison passes but the roots still differ.
func Audit(events []eventlog.Event, receipts []*types.Receipt,
	serial []*baseline.TxSets, pre func(sag.ItemID) u256.Int,
	parallelWS *state.WriteSet) *DivergenceReport {

	rep := &DivergenceReport{
		Schema:           DivergenceSchema,
		FirstDivergentTx: -1,
		Events:           len(events),
	}
	n := len(serial)
	views := buildViews(events, n)

	// serialCur tracks each item's value as the serial twin advances
	// through the block (pre-state before tx i = value after txs 0..i-1).
	serialCur := make(map[sag.ItemID]u256.Int)
	serialVal := func(id sag.ItemID) u256.Int {
		if v, ok := serialCur[id]; ok {
			return v
		}
		v := pre(id)
		serialCur[id] = v
		return v
	}

	add := func(m Mismatch) {
		rep.Mismatches = append(rep.Mismatches, m)
		if m.Tx >= 0 && (rep.FirstDivergentTx == -1 || m.Tx < rep.FirstDivergentTx) {
			rep.FirstDivergentTx = m.Tx
		}
	}

	for i := 0; i < n; i++ {
		v := &views[i]
		ser := serial[i]

		// Receipt equivalence.
		if i < len(receipts) && receipts[i] != nil && ser.Receipt != nil {
			if receipts[i].Status != ser.Receipt.Status {
				add(Mismatch{Tx: i, Kind: "receipt-status",
					Got: receipts[i].Status.String(), Want: ser.Receipt.Status.String()})
			} else if receipts[i].GasUsed != ser.Receipt.GasUsed {
				add(Mismatch{Tx: i, Kind: "receipt-gas",
					Got: fmt.Sprint(receipts[i].GasUsed), Want: fmt.Sprint(ser.Receipt.GasUsed)})
			}
		}

		// Read equivalence: every cross-transaction read of the committed
		// incarnation must have observed the value the serial twin read.
		for id, e := range v.reads {
			if id.Kind == sag.KindCode {
				continue // code reads are tracked by set only
			}
			want, ok := ser.ReadVals[id]
			if !ok {
				// The parallel schedule read an item the serial execution
				// never did — diverged control flow upstream of this tx, or
				// a degraded delta; compare against the serial running value
				// instead of flagging blind.
				want = serialVal(id)
			}
			if got := e.Val; !got.Eq(&want) {
				add(Mismatch{Tx: i, Kind: "read-value", Item: id.String(),
					Got: got.Hex(), Want: want.Hex(), Src: int(e.Src)})
			}
		}
		// Reads the serial twin performed but the parallel schedule did not:
		// fine for delta items (the commutative path never reads the base),
		// a control-flow divergence signal otherwise.
		for id := range ser.ReadVals {
			if _, ok := v.reads[id]; ok {
				continue
			}
			if _, ok := v.deltas[id]; ok {
				continue
			}
			if _, ok := v.writes[id]; ok {
				continue // blind overwrite: serial RMW vs parallel write-only
			}
			if v.commitInc < 0 {
				continue // no commit recorded (degraded/serial fallback)
			}
			want := serialVal(id)
			add(Mismatch{Tx: i, Kind: "read-set", Item: id.String(),
				Got: "(not read)", Want: want.Hex()})
		}

		// Write equivalence: each absolute publish must match the serial
		// twin's written value; delta contributions must sum to the serial
		// value change.
		for id, got := range v.writes {
			if id.Kind == sag.KindCode {
				continue
			}
			if want, ok := wsValue(ser.Changes, id); ok {
				if !got.Eq(&want) {
					add(Mismatch{Tx: i, Kind: "write-value", Item: id.String(),
						Got: got.Hex(), Want: want.Hex()})
				}
			}
		}
		for id, got := range v.deltas {
			serPre := serialVal(id)
			serPost, ok := wsValue(ser.Changes, id)
			if !ok {
				continue
			}
			var want u256.Int
			want.Sub(&serPost, &serPre)
			if !got.Eq(&want) {
				add(Mismatch{Tx: i, Kind: "delta-sum", Item: id.String(),
					Got: got.Hex(), Want: want.Hex()})
			}
		}

		// Advance the serial running values past this transaction.
		if ser.Changes != nil {
			for addr, val := range ser.Changes.Balances {
				serialCur[sag.BalanceItem(addr)] = val
			}
			for addr, nonce := range ser.Changes.Nonces {
				serialCur[sag.NonceItem(addr)] = u256.NewUint64(nonce)
			}
			for addr, slots := range ser.Changes.Storage {
				for slot, val := range slots {
					serialCur[sag.StorageItem(addr, slot)] = val
				}
			}
		}
	}

	// Block-level safety net: if no per-transaction mismatch explains a root
	// difference, diff the final write sets directly.
	if len(rep.Mismatches) == 0 && parallelWS != nil {
		serialFinal := state.NewWriteSet()
		for _, ser := range serial {
			if ser.Changes != nil {
				serialFinal.Merge(ser.Changes)
			}
		}
		diffWS := func(a, b *state.WriteSet, got, want string) {
			for addr, v := range a.Balances {
				id := sag.BalanceItem(addr)
				if wv, ok := wsValue(b, id); !ok || !v.Eq(&wv) {
					add(Mismatch{Tx: -1, Kind: "final-state", Item: id.String(),
						Got: got + "=" + v.Hex(), Want: want + "=" + wv.Hex()})
				}
			}
			for addr, nv := range a.Nonces {
				id := sag.NonceItem(addr)
				v := u256.NewUint64(nv)
				if wv, ok := wsValue(b, id); !ok || !v.Eq(&wv) {
					add(Mismatch{Tx: -1, Kind: "final-state", Item: id.String(),
						Got: got + "=" + v.Hex(), Want: want + "=" + wv.Hex()})
				}
			}
			for addr, slots := range a.Storage {
				for slot, v := range slots {
					id := sag.StorageItem(addr, slot)
					if wv, ok := wsValue(b, id); !ok || !v.Eq(&wv) {
						add(Mismatch{Tx: -1, Kind: "final-state", Item: id.String(),
							Got: got + "=" + v.Hex(), Want: want + "=" + wv.Hex()})
					}
				}
			}
		}
		diffWS(parallelWS, serialFinal, "parallel", "serial")
		diffWS(serialFinal, parallelWS, "serial", "parallel")
	}
	return rep
}
