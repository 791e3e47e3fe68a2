package sag

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestFanOutReportsLowestFailure: whatever the width and however the
// goroutines interleave, fanOut visits every index below the lowest failing
// one exactly once and reports that failure — the one a sequential loop
// stops at.
func TestFanOutReportsLowestFailure(t *testing.T) {
	const n = 512
	failing := map[int]bool{97: true, 98: true, 300: true, 511: true}
	for _, workers := range []int{1, 2, 3, 8, 600} {
		for round := 0; round < 20; round++ {
			var visits [n]atomic.Int32
			err := fanOut(n, workers, func(worker, i int) error {
				if worker < 0 || worker >= workers {
					t.Errorf("worker id %d out of range [0,%d)", worker, workers)
				}
				visits[i].Add(1)
				if failing[i] {
					return fmt.Errorf("tx %d", i)
				}
				return nil
			})
			if err == nil || err.Error() != "tx 97" {
				t.Fatalf("workers=%d: err = %v, want the failure at index 97", workers, err)
			}
			for i := 0; i < 97; i++ {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
				}
			}
			for i := range visits {
				if visits[i].Load() > 1 {
					t.Fatalf("workers=%d: index %d visited twice", workers, i)
				}
			}
		}
	}
	var calls atomic.Int32
	if err := fanOut(n, 4, func(_, _ int) error { calls.Add(1); return nil }); err != nil || calls.Load() != n {
		t.Fatalf("clean run: err %v after %d calls, want nil after %d", err, calls.Load(), n)
	}
	sentinel := errors.New("only")
	if err := fanOut(1, 4, func(_, _ int) error { return sentinel }); err != sentinel {
		t.Fatalf("single index: err = %v", err)
	}
	if err := fanOut(0, 4, func(_, _ int) error { return sentinel }); err != nil {
		t.Fatalf("empty range: err = %v", err)
	}
}
