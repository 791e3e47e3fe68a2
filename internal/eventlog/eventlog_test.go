package eventlog

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

func TestNilAndDisabledLogSafe(t *testing.T) {
	var nilLog *Log
	if nilLog.Enabled() {
		t.Fatal("nil log reports enabled")
	}
	if nilLog.Block(1) != nil || nilLog.Events(1) != nil || nilLog.Blocks() != nil {
		t.Fatal("nil log is not empty")
	}
	lg := New()
	if lg.Enabled() {
		t.Fatal("fresh log should start disabled")
	}
	lg.Enable()
	lg.Disable()
	if lg.Enabled() {
		t.Fatal("Disable did not stick")
	}
}

// TestStamping proves events are stamped densely in append order with
// non-decreasing timestamps, per block, and that a snapshot is a copy.
func TestStamping(t *testing.T) {
	lg := New()
	lg.Enable()
	lg.Begin(4, 2)
	id := sag.BalanceItem(types.BytesToAddress([]byte{1}))
	lg.Record(OpDispatch, 0, 0, 3, -1, sag.ItemID{}, u256.Int{})
	lg.Record(OpRead, 0, 0, -1, 7, id, u256.NewUint64(42))
	lg.Append(Event{Op: OpPublish, Early: true, Worker: 3, Src: -1, Item: id})
	events := lg.Events(4)
	if len(events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d stamped Seq %d, want dense order", i, e.Seq)
		}
		if i > 0 && e.TS < events[i-1].TS {
			t.Fatalf("timestamps regress at event %d", i)
		}
	}
	want := u256.NewUint64(42)
	if r := events[1]; r.Op != OpRead || r.Src != 7 || r.Worker != -1 || r.Item != id || !r.Val.Eq(&want) {
		t.Fatalf("read event recorded as %+v", r)
	}
	if !events[2].Early {
		t.Fatal("Append dropped the Early flag")
	}
	events[0].Tx = 99
	if lg.Events(4)[0].Tx == 99 {
		t.Fatal("snapshot shares memory with the log")
	}

	// A new block restarts the stamps; re-executing a number replaces it.
	lg.Begin(5, 1)
	lg.Record(OpDispatch, 1, 0, 0, -1, sag.ItemID{}, u256.Int{})
	if got := lg.Events(5); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("stamps must restart at 0 in a new block, got %+v", got)
	}
	lg.Begin(4, 2)
	if b := lg.Block(4); b == nil || len(b.Events) != 0 {
		t.Fatalf("re-begun block 4 = %+v, want an empty record", b)
	}
	if got := len(lg.Blocks()); got != 2 {
		t.Fatalf("%d retained blocks, want 2", got)
	}
}

// TestRetentionBounded drives more blocks than the window through one log
// (a long -obs run) and proves memory stays bounded: exactly MaxBlocks
// records survive, the evicted ones read as not-found, the newest are
// intact, and the backing array does not grow with the block count.
func TestRetentionBounded(t *testing.T) {
	lg := New()
	lg.Enable()
	const total = 5*MaxBlocks + 3
	for n := int64(1); n <= total; n++ {
		lg.Begin(n, 1)
		lg.Record(OpDispatch, 0, 0, 0, -1, sag.ItemID{}, u256.Int{})
		lg.AddReport(n, "report")
		if got := len(lg.Blocks()); got > MaxBlocks {
			t.Fatalf("after block %d the log retains %d blocks, cap is %d", n, got, MaxBlocks)
		}
	}
	blocks := lg.Blocks()
	if len(blocks) != MaxBlocks {
		t.Fatalf("retained %d blocks, want %d", len(blocks), MaxBlocks)
	}
	if blocks[0].Number != total-MaxBlocks+1 || blocks[MaxBlocks-1].Number != total {
		t.Fatalf("window = [%d, %d], want the newest %d blocks", blocks[0].Number, blocks[MaxBlocks-1].Number, MaxBlocks)
	}
	if lg.Block(total-MaxBlocks) != nil || lg.Events(1) != nil {
		t.Fatal("evicted block still readable")
	}
	if b := lg.Block(total); len(b.Events) != 1 || len(b.Reports) != 1 {
		t.Fatalf("newest block = %+v", b)
	}
	if c := cap(lg.blocks); c > 2*MaxBlocks {
		t.Fatalf("block index capacity %d grew with the run length", c)
	}
}

// TestConcurrentAppend proves appends from many goroutines stay dense (run
// under -race in CI).
func TestConcurrentAppend(t *testing.T) {
	lg := New()
	lg.Enable()
	lg.Begin(1, 8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				lg.Record(OpRead, w, 0, w, -1, sag.ItemID{}, u256.Int{})
				_ = lg.Block(1)
			}
		}(w)
	}
	wg.Wait()
	events := lg.Events(1)
	if len(events) != 1600 {
		t.Fatalf("%d events, want 1600", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d has Seq %d", i, e.Seq)
		}
	}
}

// TestOpAndClassNamesRoundTrip proves every op and abort-class name parses
// back (capture and report decoding).
func TestOpAndClassNamesRoundTrip(t *testing.T) {
	for op := OpDispatch; op <= OpBreaker; op++ {
		got, ok := ParseOp(op.String())
		if !ok || got != op {
			t.Fatalf("ParseOp(%q) = %v,%v", op.String(), got, ok)
		}
	}
	if _, ok := ParseOp("nonsense"); ok {
		t.Fatal("ParseOp accepted garbage")
	}
	if Op(0).String() != "?" || Op(200).String() != "?" {
		t.Fatal("out-of-range op has a name")
	}
	for c := AbortUnpredictedWrite; c <= AbortForced; c++ {
		var back AbortClass
		if err := back.UnmarshalText([]byte(c.String())); err != nil || back != c {
			t.Fatalf("class %q round-trips to %v (%v)", c, back, err)
		}
	}
	var c AbortClass
	if err := c.UnmarshalText([]byte("unknown")); err == nil {
		t.Fatal("unknown class accepted")
	}
	if !OpRead.Gated() || OpPark.Gated() || OpWasted.Gated() || OpWatchdog.Gated() {
		t.Fatal("gated set is wrong")
	}
	if !OpDrop.ItemKeyed() || OpAbort.ItemKeyed() {
		t.Fatal("item-keyed set is wrong")
	}
}

// codecEvents covers every field the codec carries.
func codecEvents() []Event {
	addr := types.BytesToAddress([]byte{0xab})
	events := []Event{
		{Op: OpDispatch, TS: 5, Worker: 2, Src: -1},
		{Op: OpRead, TS: 9, Worker: -1, Src: 3,
			Item: sag.StorageItem(addr, types.BytesToHash([]byte{1})), Val: u256.NewUint64(7)},
		{Op: OpPark, Worker: 2, Src: 3, Item: sag.BalanceItem(addr)},
		{Op: OpPublish, Early: true, Worker: 2, Src: -1, Item: sag.BalanceItem(addr), Val: u256.NewUint64(1000)},
		{Op: OpDelta, Inc: 1, Worker: 2, Src: -1, Item: sag.NonceItem(addr), Val: u256.NewUint64(1)},
		{Op: OpDrop, Inc: 1, Worker: -1, Src: -1, Item: sag.CodeItem(addr)},
		{Op: OpAbort, Tx: 1, Worker: -1, Src: 0, Item: sag.BalanceItem(addr), Gas: 900,
			Abort: &AbortInfo{Class: AbortCascade, Cascade: 2, Parent: 4, WriterInc: 1, ReadSrc: -1}},
		{Op: OpWasted, Tx: 1, Worker: -1, Src: -1, Gas: 512},
		{Op: OpCommit, Inc: 1, Worker: 2, Src: -1},
		{Op: OpWatchdog, Tx: -1, Inc: 2, Worker: -1, Src: -1},
	}
	for i := range events {
		events[i].Seq = uint64(i)
	}
	return events
}

// TestCodecRoundTrip proves encode → JSON → decode reproduces every field.
func TestCodecRoundTrip(t *testing.T) {
	events := codecEvents()
	blob, err := json.Marshal(EncodeEvents(events))
	if err != nil {
		t.Fatal(err)
	}
	var wire []EventJSON
	if err := json.Unmarshal(blob, &wire); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvents(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("decoded\n%+v\nwant\n%+v", got, events)
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	bad := []EventJSON{
		{Op: "nonsense"},
		{Op: "read", Kind: "bogus", Addr: "0x" + "00"},
		{Op: "read", Kind: "balance", Addr: "0x1234"},
		{Op: "read", Kind: "balance", Addr: "zz" + string(make([]byte, 40))},
		{Op: "read", Kind: "storage", Addr: types.Address{}.Hex(), Slot: "0x01"},
		{Op: "read", Kind: "balance", Addr: types.Address{}.Hex(), Slot: types.Hash{}.Hex()},
		{Op: "read", Addr: types.Address{}.Hex()},
		{Op: "read", Val: "0xzz"},
		{Op: "abort", Abort: &AbortInfo{}},
	}
	for i, j := range bad {
		if _, err := DecodeEvents([]EventJSON{j}); err == nil {
			t.Errorf("malformed event %d (%+v) accepted", i, j)
		}
	}
}
