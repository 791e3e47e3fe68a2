package replay

import "dmvcc/internal/eventlog"

// ReplayFn re-executes the diverging block restricted to the given
// transaction subset (indices into the original block, ascending) and
// reports whether the parallel result still diverges from the serial twin.
// Errors are treated as "did not diverge" — the shrinker keeps the
// transaction.
type ReplayFn func(keep []int) (diverged bool, err error)

// maxShrinkReplays caps the total number of re-executions one shrink run
// may spend (each replay runs the block twice: serially and in parallel).
const maxShrinkReplays = 400

// Shrink greedily minimizes a diverging transaction set: repeated passes
// drop one transaction at a time, keeping the drop whenever the remaining
// subset still diverges, until a full pass removes nothing (1-minimal: every
// remaining transaction is necessary). The initial set is 0..n-1. Returns
// the minimized subset and the number of replays spent.
func Shrink(n int, replay ReplayFn) (keep []int, replays int) {
	keep = make([]int, n)
	for i := range keep {
		keep[i] = i
	}
	if n <= 1 {
		return keep, 0
	}
	for {
		removed := false
		// Iterate from the end: later transactions are more often mere
		// victims of an earlier race and drop out first.
		for i := len(keep) - 1; i >= 0 && len(keep) > 1; i-- {
			if replays >= maxShrinkReplays {
				return keep, replays
			}
			cand := make([]int, 0, len(keep)-1)
			cand = append(cand, keep[:i]...)
			cand = append(cand, keep[i+1:]...)
			replays++
			if ok, err := replay(cand); err == nil && ok {
				keep = cand
				removed = true
			}
		}
		if !removed {
			return keep, replays
		}
	}
}

// CompareSchedules checks that a replayed event log forced the same
// per-transaction schedule as the capture: for every transaction, the
// subsequence of gated events (op, incarnation, item — plus resolved source
// and value for reads) must match exactly. Global stamp order and worker
// assignment are allowed to differ (they are representation, not
// semantics). Returns the first differing transaction and a description, or
// (-1, "") when equivalent.
func CompareSchedules(recorded, replayed []eventlog.Event) (int, string) {
	perTx := func(events []eventlog.Event) map[int][]eventlog.Event {
		m := make(map[int][]eventlog.Event)
		for _, e := range events {
			if !e.Op.Gated() {
				continue
			}
			m[int(e.Tx)] = append(m[int(e.Tx)], e)
		}
		return m
	}
	a, b := perTx(recorded), perTx(replayed)
	txs := make(map[int]struct{})
	for tx := range a {
		txs[tx] = struct{}{}
	}
	for tx := range b {
		txs[tx] = struct{}{}
	}
	first, why := -1, ""
	note := func(tx int, msg string) {
		if first == -1 || tx < first {
			first, why = tx, msg
		}
	}
	for tx := range txs {
		ea, eb := a[tx], b[tx]
		if len(ea) != len(eb) {
			note(tx, "event count differs")
			continue
		}
		for i := range ea {
			x, y := ea[i], eb[i]
			if x.Op != y.Op || x.Inc != y.Inc || (x.Op.ItemKeyed() && x.Item != y.Item) {
				note(tx, "event "+x.Op.String()+" vs "+y.Op.String()+" at position differs")
				break
			}
			if x.Op == eventlog.OpRead && (x.Src != y.Src || !x.Val.Eq(&y.Val)) {
				note(tx, "read of "+x.Item.String()+" resolved differently")
				break
			}
		}
	}
	return first, why
}
