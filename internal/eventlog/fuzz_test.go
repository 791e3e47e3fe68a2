package eventlog

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzDecodeEvents feeds arbitrary bytes to the JSON event codec — the
// format of replay captures read back from disk. Decoding must never panic,
// and on accepted input encode∘decode is the identity: re-encoding the
// decoded events and decoding again yields the same events and the same
// canonical bytes.
func FuzzDecodeEvents(f *testing.F) {
	seed, err := json.Marshal(EncodeEvents(codecEvents()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"seq":0,"op":"read","tx":1,"inc":0,"kind":"balance","addr":"0x00"}]`))
	f.Add([]byte(`[{"op":"abort","tx":2147483648,"abort":{"class":"cascade"}}]`))
	f.Add([]byte(`[{"op":"publish","kind":"storage","addr":"0xzz","slot":"0x","val":"0x"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var wire []EventJSON
		if json.Unmarshal(data, &wire) != nil {
			return
		}
		events, err := DecodeEvents(wire)
		if err != nil {
			return
		}
		canon, err := json.Marshal(EncodeEvents(events))
		if err != nil {
			t.Fatalf("accepted events do not marshal: %v", err)
		}
		var wire2 []EventJSON
		if err := json.Unmarshal(canon, &wire2); err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, canon)
		}
		events2, err := DecodeEvents(wire2)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(events, events2) {
			t.Fatalf("decode(encode(x)) != x:\n%+v\n%+v", events, events2)
		}
		canon2, err := json.Marshal(EncodeEvents(events2))
		if err != nil || string(canon2) != string(canon) {
			t.Fatalf("canonical form is not a fixed point:\n%s\n%s", canon, canon2)
		}
	})
}
