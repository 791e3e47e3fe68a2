package telemetry

import (
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
)

// ItemProfile counts one state item's traffic within a block: how often it
// was read, how often a read had to park on a pending version, how many
// absolute versions were published (and how many of those early, at release
// points), how many commutative delta contributions were merged, and how
// many aborts its stale reads triggered.
type ItemProfile struct {
	Reads          int64 `json:"reads"`
	BlockedReads   int64 `json:"blocked_reads"`
	Writes         int64 `json:"writes"`
	EarlyPublishes int64 `json:"early_publishes"`
	DeltaMerges    int64 `json:"delta_merges"`
	Aborts         int64 `json:"aborts"`
}

// Accesses is the total event count of the profile (abort entries are
// consequences, not accesses, and are excluded).
func (p *ItemProfile) Accesses() int64 {
	return p.Reads + p.BlockedReads + p.Writes + p.DeltaMerges
}

// AbortRecord is the forensic account of one incarnation abort: which read
// of which item went stale, which writer invalidated it, what version the
// victim had observed, the cause classification, and the gas the retired
// incarnation had burned. Records of one cascade share a Cascade id and
// form a tree through Parent (the victim whose dropped versions this victim
// had read; -1 for the cascade root).
type AbortRecord struct {
	// Seq is the record's position in block abort order.
	Seq int `json:"seq"`
	Tx  int `json:"tx"`
	Inc int `json:"inc"`
	// Cascade groups the records of one cascade (one triggering publish).
	Cascade int `json:"cascade"`
	// Parent is the tx of the parent victim within the cascade (-1 = root).
	Parent int `json:"parent"`
	// CauseTx is the transaction whose publish (roots) or abort (cascade
	// members) invalidated the victim's read.
	CauseTx   int `json:"cause_tx"`
	WriterInc int `json:"writer_inc"`
	// Item identifies the stale-read key; ItemLabel is its rendered form.
	Item      sag.ItemID `json:"-"`
	ItemLabel string     `json:"item"`
	// ReadSrcTx is the version the victim had observed: the writing
	// transaction's index, or -1 when the read resolved from the snapshot.
	ReadSrcTx int                 `json:"read_src_tx"`
	Class     eventlog.AbortClass `json:"class"`
	// WastedGas is the virtual service time the aborted incarnation burned
	// (full ExecCost for finished incarnations, partial progress otherwise).
	WastedGas uint64 `json:"wasted_gas"`
}

// forensicLabel renders an item for forensic reports. It uses ItemID.Label
// (head+tail of the address) rather than String: hot keys in the same
// workload often share the fixed-width prefix String keeps and would
// collapse to one indistinguishable label.
func forensicLabel(id sag.ItemID) string {
	if id.Kind == 0 {
		return ""
	}
	return id.Label()
}

// ItemProfiles folds a block's events into per-item contention profiles.
// Resumes and drops are not traffic and create no profile.
func ItemProfiles(events []eventlog.Event) map[sag.ItemID]*ItemProfile {
	items := make(map[sag.ItemID]*ItemProfile)
	profile := func(id sag.ItemID) *ItemProfile {
		p, ok := items[id]
		if !ok {
			p = &ItemProfile{}
			items[id] = p
		}
		return p
	}
	for _, ev := range events {
		if ev.Item.Kind == 0 {
			continue
		}
		switch ev.Op {
		case eventlog.OpRead:
			profile(ev.Item).Reads++
		case eventlog.OpPark:
			profile(ev.Item).BlockedReads++
		case eventlog.OpPublish:
			p := profile(ev.Item)
			p.Writes++
			if ev.Early {
				p.EarlyPublishes++
			}
		case eventlog.OpDelta:
			profile(ev.Item).DeltaMerges++
		case eventlog.OpAbort:
			profile(ev.Item).Aborts++
		}
	}
	return items
}

// AbortRecords extracts one record per abort event, in abort order. An
// incarnation killed mid-flight reports its partial gas in a separate wasted
// event that may land on either side of the abort; both are summed into the
// record here.
func AbortRecords(events []eventlog.Event) []AbortRecord {
	type incKey struct{ tx, inc int32 }
	partial := make(map[incKey]uint64)
	for _, ev := range events {
		if ev.Op == eventlog.OpWasted {
			partial[incKey{ev.Tx, ev.Inc}] += ev.Gas
		}
	}
	var out []AbortRecord
	for _, ev := range events {
		if ev.Op != eventlog.OpAbort {
			continue
		}
		rec := AbortRecord{
			Seq: len(out), Tx: int(ev.Tx), Inc: int(ev.Inc),
			Cascade: -1, Parent: -1, CauseTx: int(ev.Src), ReadSrcTx: -1,
			Item: ev.Item, ItemLabel: forensicLabel(ev.Item),
			WastedGas: ev.Gas + partial[incKey{ev.Tx, ev.Inc}],
		}
		if a := ev.Abort; a != nil {
			rec.Cascade, rec.Parent = int(a.Cascade), int(a.Parent)
			rec.WriterInc, rec.ReadSrcTx, rec.Class = int(a.WriterInc), int(a.ReadSrc), a.Class
		}
		out = append(out, rec)
	}
	return out
}
