package eventlog

import (
	"encoding/hex"
	"fmt"

	"dmvcc/internal/sag"
	"dmvcc/internal/u256"
)

// EventJSON is the serialized form of one Event: the format of replay
// captures on disk. Zero-valued optional fields are omitted.
type EventJSON struct {
	Seq    uint64     `json:"seq"`
	TS     int64      `json:"ts_ns,omitempty"`
	Op     string     `json:"op"`
	Early  bool       `json:"early,omitempty"`
	Tx     int32      `json:"tx"`
	Inc    int32      `json:"inc"`
	Worker int32      `json:"worker,omitempty"`
	Src    int32      `json:"src,omitempty"`
	Kind   string     `json:"kind,omitempty"` // item kind; "" when no item
	Addr   string     `json:"addr,omitempty"`
	Slot   string     `json:"slot,omitempty"`
	Val    string     `json:"val,omitempty"`
	Gas    uint64     `json:"gas,omitempty"`
	Abort  *AbortInfo `json:"abort,omitempty"`
}

// EncodeEvents converts events to their JSON form.
func EncodeEvents(events []Event) []EventJSON {
	out := make([]EventJSON, len(events))
	for i, e := range events {
		j := EventJSON{
			Seq: e.Seq, TS: e.TS, Op: e.Op.String(), Early: e.Early,
			Tx: e.Tx, Inc: e.Inc, Worker: e.Worker, Src: e.Src, Gas: e.Gas,
		}
		if e.Item.Kind != 0 {
			j.Kind = e.Item.Kind.String()
			j.Addr = e.Item.Addr.Hex()
			if e.Item.Kind == sag.KindStorage {
				j.Slot = e.Item.Slot.Hex()
			}
		}
		if !e.Val.IsZero() {
			j.Val = e.Val.Hex()
		}
		if e.Abort != nil {
			a := *e.Abort
			j.Abort = &a
		}
		out[i] = j
	}
	return out
}

// parseKind inverts ItemKind.String.
func parseKind(s string) (sag.ItemKind, bool) {
	for k := sag.KindStorage; k <= sag.KindCode; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// parseFixedHex decodes a 0x-prefixed hex string of exactly len(dst) bytes.
func parseFixedHex(dst []byte, s string) error {
	if len(s) != 2+2*len(dst) || s[0] != '0' || s[1] != 'x' {
		return fmt.Errorf("want 0x + %d hex digits, got %q", 2*len(dst), s)
	}
	_, err := hex.Decode(dst, []byte(s[2:]))
	return err
}

// DecodeEvents inverts EncodeEvents. Captures come from disk, so malformed
// input is an error, never a panic.
func DecodeEvents(events []EventJSON) ([]Event, error) {
	out := make([]Event, len(events))
	for i, j := range events {
		op, ok := ParseOp(j.Op)
		if !ok {
			return nil, fmt.Errorf("event %d: unknown op %q", i, j.Op)
		}
		e := Event{
			Seq: j.Seq, TS: j.TS, Op: op, Early: j.Early,
			Tx: j.Tx, Inc: j.Inc, Worker: j.Worker, Src: j.Src, Gas: j.Gas,
		}
		switch {
		case j.Kind != "":
			k, ok := parseKind(j.Kind)
			if !ok {
				return nil, fmt.Errorf("event %d: unknown item kind %q", i, j.Kind)
			}
			e.Item.Kind = k
			if err := parseFixedHex(e.Item.Addr[:], j.Addr); err != nil {
				return nil, fmt.Errorf("event %d: bad addr: %v", i, err)
			}
			if k == sag.KindStorage {
				if err := parseFixedHex(e.Item.Slot[:], j.Slot); err != nil {
					return nil, fmt.Errorf("event %d: bad slot: %v", i, err)
				}
			} else if j.Slot != "" {
				return nil, fmt.Errorf("event %d: slot on a %s item", i, j.Kind)
			}
		case j.Addr != "" || j.Slot != "":
			return nil, fmt.Errorf("event %d: addr/slot without an item kind", i)
		}
		if j.Val != "" {
			v, err := u256.FromHex(j.Val)
			if err != nil {
				return nil, fmt.Errorf("event %d: bad val %q: %v", i, j.Val, err)
			}
			e.Val = v
		}
		if a := j.Abort; a != nil {
			if a.Class < AbortUnpredictedWrite || a.Class > AbortForced {
				return nil, fmt.Errorf("event %d: abort without a known class", i)
			}
			info := *a
			e.Abort = &info
		}
		out[i] = e
	}
	return out, nil
}
