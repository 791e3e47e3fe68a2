package replay

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
	"dmvcc/internal/u256"
)

func item(n byte) sag.ItemID {
	return sag.StorageItem(types.BytesToAddress([]byte{n}), types.BytesToHash([]byte{n}))
}

func ev(op eventlog.Op, tx, inc int, id sag.ItemID, val uint64) eventlog.Event {
	return eventlog.Event{Op: op, Tx: int32(tx), Inc: int32(inc), Src: -1, Worker: -1,
		Item: id, Val: u256.NewUint64(val)}
}

// TestSequencerOrder proves the gate admits events strictly in log order: an
// Await for the second event parks until the first is consumed and released.
func TestSequencerOrder(t *testing.T) {
	// The park between the dispatches is not a gated action: the sequencer
	// must not wait for anyone to claim it.
	events := []eventlog.Event{
		ev(eventlog.OpDispatch, 0, 0, sag.ItemID{}, 0),
		ev(eventlog.OpPark, 0, 0, item(1), 0),
		ev(eventlog.OpDispatch, 1, 0, sag.ItemID{}, 0),
	}
	seq := NewSequencer(events)

	admitted := make(chan struct{})
	go func() {
		if !seq.Await(eventlog.OpDispatch, 1, 0, sag.ItemID{}, nil) {
			t.Error("tx 1 await returned dead")
		}
		close(admitted)
		seq.Done()
	}()
	select {
	case <-admitted:
		t.Fatal("tx 1 admitted before tx 0 consumed its slot")
	case <-time.After(50 * time.Millisecond):
	}
	if !seq.Await(eventlog.OpDispatch, 0, 0, sag.ItemID{}, nil) {
		t.Fatal("tx 0 await returned dead")
	}
	seq.Done()
	select {
	case <-admitted:
	case <-time.After(time.Second):
		t.Fatal("tx 1 never admitted after tx 0 released the gate")
	}
	if seq.Consumed() != 2 || !seq.Faithful() {
		t.Fatalf("consumed=%d faithful=%v, want 2/true", seq.Consumed(), seq.Faithful())
	}
}

// TestSequencerItemMatch proves item-keyed ops only admit the matching item.
func TestSequencerItemMatch(t *testing.T) {
	a, b := item(1), item(2)
	events := []eventlog.Event{
		ev(eventlog.OpRead, 0, 0, a, 0),
		ev(eventlog.OpRead, 0, 0, b, 0),
	}
	seq := NewSequencer(events)
	done := make(chan struct{})
	go func() {
		seq.Await(eventlog.OpRead, 0, 0, b, nil) // second in the log
		close(done)
		seq.Done()
	}()
	select {
	case <-done:
		t.Fatal("read of item b admitted while item a heads the log")
	case <-time.After(50 * time.Millisecond):
	}
	seq.Await(eventlog.OpRead, 0, 0, a, nil)
	seq.Done()
	<-done
}

// TestSequencerDeadConsumes proves a dead waiter consumes its own head slot
// (so the log keeps draining) and reports dead to the caller.
func TestSequencerDeadConsumes(t *testing.T) {
	events := []eventlog.Event{
		ev(eventlog.OpRead, 0, 0, item(1), 0),
		ev(eventlog.OpDispatch, 1, 0, sag.ItemID{}, 0),
	}
	seq := NewSequencer(events)
	if seq.Await(eventlog.OpRead, 0, 0, item(1), func() bool { return true }) {
		t.Fatal("dead waiter admitted")
	}
	// Its slot was consumed: tx 1 is now the head and admits immediately.
	if !seq.Await(eventlog.OpDispatch, 1, 0, sag.ItemID{}, nil) {
		t.Fatal("tx 1 not admitted after dead head consumed")
	}
	seq.Done()
	if !seq.Faithful() {
		t.Fatal("dead consumption must not count as a skip")
	}
}

// TestSequencerOverrun proves awaiting past the log end abandons the gate
// (free-running, Faithful false) instead of deadlocking.
func TestSequencerOverrun(t *testing.T) {
	seq := NewSequencer([]eventlog.Event{ev(eventlog.OpDispatch, 0, 0, sag.ItemID{}, 0)})
	seq.Await(eventlog.OpDispatch, 0, 0, sag.ItemID{}, nil)
	seq.Done()
	if !seq.Await(eventlog.OpDispatch, 7, 0, sag.ItemID{}, nil) {
		t.Fatal("overrun await must admit (free-run), not report dead")
	}
	seq.Done()
	if seq.Faithful() {
		t.Fatal("overrun must clear Faithful")
	}
}

// TestSequencerStopAbandons proves Stop releases every parked waiter.
func TestSequencerStopAbandons(t *testing.T) {
	seq := NewSequencer([]eventlog.Event{ev(eventlog.OpDispatch, 0, 0, sag.ItemID{}, 0)})
	seq.Start()
	var wg sync.WaitGroup
	for i := 1; i <= 3; i++ {
		wg.Add(1)
		go func(tx int) {
			defer wg.Done()
			seq.Await(eventlog.OpDispatch, tx, 0, sag.ItemID{}, nil) // never in the log
			seq.Done()
		}(i)
	}
	time.Sleep(20 * time.Millisecond)
	seq.Stop()
	donec := make(chan struct{})
	go func() { wg.Wait(); close(donec) }()
	select {
	case <-donec:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not release parked waiters")
	}
}

// TestShrinkMinimizes proves the greedy shrinker reaches the 1-minimal
// subset when divergence needs two specific transactions together.
func TestShrinkMinimizes(t *testing.T) {
	diverges := func(keep []int) bool {
		has := map[int]bool{}
		for _, i := range keep {
			has[i] = true
		}
		return has[2] && has[5]
	}
	keep, replays := Shrink(8, func(cand []int) (bool, error) { return diverges(cand), nil })
	if len(keep) != 2 || keep[0] != 2 || keep[1] != 5 {
		t.Fatalf("minimized to %v, want [2 5]", keep)
	}
	if replays == 0 || replays > maxShrinkReplays {
		t.Fatalf("replays=%d out of range", replays)
	}
}

// TestShrinkKeepsOnError proves a failing replay keeps the candidate's
// transaction (conservative: never drop what could not be re-checked).
func TestShrinkKeepsOnError(t *testing.T) {
	keep, _ := Shrink(3, func(cand []int) (bool, error) {
		return false, os.ErrInvalid // every candidate un-checkable
	})
	if len(keep) != 3 {
		t.Fatalf("kept %v, want all 3 txs when replays error", keep)
	}
}

// TestShrinkNeverEmpty proves the shrinker keeps at least one transaction
// even when every candidate "diverges".
func TestShrinkNeverEmpty(t *testing.T) {
	keep, _ := Shrink(4, func(cand []int) (bool, error) { return true, nil })
	if len(keep) != 1 {
		t.Fatalf("kept %v, want exactly 1 tx", keep)
	}
}

// TestCompareSchedules proves the per-transaction diff pinpoints the lowest
// differing transaction and ignores diagnostic events.
func TestCompareSchedules(t *testing.T) {
	a := []eventlog.Event{
		ev(eventlog.OpDispatch, 0, 0, sag.ItemID{}, 0),
		ev(eventlog.OpRead, 0, 0, item(1), 42),
		ev(eventlog.OpDispatch, 1, 0, sag.ItemID{}, 0),
		ev(eventlog.OpCommit, 1, 0, sag.ItemID{}, 0),
		ev(eventlog.OpCommit, 0, 0, sag.ItemID{}, 0),
	}
	b := append([]eventlog.Event(nil), a...)
	if tx, why := CompareSchedules(a, b); tx != -1 {
		t.Fatalf("identical schedules reported divergent at tx %d: %s", tx, why)
	}
	// Diagnostic events are invisible to the comparison.
	withDiag := append([]eventlog.Event{
		ev(eventlog.OpWatchdog, -1, 0, sag.ItemID{}, 0),
		ev(eventlog.OpPark, 0, 0, item(1), 0), // whether a read parked is timing, not schedule
		ev(eventlog.OpResume, 0, 0, item(1), 0),
		ev(eventlog.OpWasted, 1, 0, sag.ItemID{}, 0),
	}, a...)
	if tx, why := CompareSchedules(a, withDiag); tx != -1 {
		t.Fatalf("non-gated events flagged as schedule change at tx %d: %s", tx, why)
	}
	// A different read value on tx 0 must be pinned to tx 0.
	b[1].Val = u256.NewUint64(43)
	tx, why := CompareSchedules(a, b)
	if tx != 0 || why == "" {
		t.Fatalf("differing read value reported at tx %d (%q), want tx 0", tx, why)
	}
	// A missing event on tx 1 must be pinned to tx 1.
	c := []eventlog.Event{a[0], a[1], a[2], a[4]}
	if tx, _ := CompareSchedules(a, c); tx != 1 {
		t.Fatalf("missing commit reported at tx %d, want tx 1", tx)
	}
}

// TestCaptureRoundTrip proves encode → write → read → decode reproduces the
// event log exactly, including items, values and read sources.
func TestCaptureRoundTrip(t *testing.T) {
	addr := types.BytesToAddress([]byte{0xab})
	events := []eventlog.Event{
		{Op: eventlog.OpDispatch, Tx: 0, Inc: 0, Worker: 2, Src: -1},
		{Op: eventlog.OpRead, Tx: 0, Inc: 0, Worker: 2, Src: 3,
			Item: sag.StorageItem(addr, types.BytesToHash([]byte{1})), Val: u256.NewUint64(7)},
		{Op: eventlog.OpPublish, Tx: 0, Inc: 0, Worker: 2, Src: -1,
			Item: sag.BalanceItem(addr), Val: u256.NewUint64(1000)},
		{Op: eventlog.OpDelta, Tx: 0, Inc: 1, Worker: 2, Src: -1,
			Item: sag.NonceItem(addr), Val: u256.NewUint64(1)},
		{Op: eventlog.OpDrop, Tx: 0, Inc: 1, Worker: 2, Src: -1, Item: sag.BalanceItem(addr)},
		{Op: eventlog.OpAbort, Tx: 1, Inc: 0, Worker: 0, Src: 0, Item: sag.BalanceItem(addr)},
		{Op: eventlog.OpCommit, Tx: 0, Inc: 1, Worker: 2, Src: -1},
	}
	for i := range events {
		events[i].Seq = uint64(i)
	}
	cap := &Capture{
		Schema:  CaptureSchema,
		Recipe:  Recipe{Seed: 9, Txs: 2, Class: "panic", Block: 3, Backend: "trie", Keep: []int{0, 1}},
		Threads: 4,
		Events:  eventlog.EncodeEvents(events),
	}
	path := filepath.Join(t.TempDir(), "capture.json")
	if err := cap.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Replayable(); err != nil {
		t.Fatalf("round-tripped capture not replayable: %v", err)
	}
	decoded, err := got.DecodedEvents()
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(decoded), len(events))
	}
	for i := range events {
		w, g := events[i], decoded[i]
		if g.Op != w.Op || g.Tx != w.Tx || g.Inc != w.Inc || g.Worker != w.Worker ||
			g.Src != w.Src || g.Item != w.Item || !g.Val.Eq(&w.Val) {
			t.Fatalf("event %d decoded as %+v, want %+v", i, g, w)
		}
	}
	r := got.Recipe
	if r.Seed != 9 || r.Txs != 2 || r.Class != "panic" || r.Block != 3 || r.Backend != "trie" {
		t.Fatalf("recipe decoded as %+v, want %+v", r, cap.Recipe)
	}
	if len(r.Keep) != 2 || r.Keep[0] != 0 || r.Keep[1] != 1 {
		t.Fatalf("keep decoded as %v", r.Keep)
	}
}

// TestCaptureRefusals proves unreplayable captures are rejected: wrong
// schema, and logs containing diagnostic watchdog/breaker events (those mark
// recovery actions the replayer cannot force).
func TestCaptureRefusals(t *testing.T) {
	bad := &Capture{Schema: "dmvcc/other/v9"}
	if err := bad.Replayable(); err == nil {
		t.Fatal("wrong schema accepted for replay")
	}
	wd := &Capture{
		Schema: CaptureSchema,
		Events: eventlog.EncodeEvents([]eventlog.Event{{Op: eventlog.OpWatchdog, Tx: -1}}),
	}
	if err := wd.Replayable(); err == nil {
		t.Fatal("capture with watchdog events accepted for replay")
	}
}
