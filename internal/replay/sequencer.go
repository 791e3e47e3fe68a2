// Package replay is the execution flight-recorder toolchain, every part of
// it a reader of one block's scheduler event log (internal/eventlog):
// persisting the log as a capture, deterministically re-executing the block
// under the recorded interleaving (Sequencer, a core.Gate), auditing a
// diverging block against the serial twin down to the first mismatching
// transaction and item (Audit), and shrinking a diverging block to a minimal
// repro (Shrink).
package replay

import (
	"sync"
	"time"

	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
)

// Sequencer forces a recorded schedule back onto a live execution. It
// implements core.Gate: every gated scheduler action Awaits its turn — the
// head of the remaining event log — performs while holding the claim, and
// releases it with Done. Exactly one gated action runs at a time, in
// recorded stamp order, which reproduces every read resolution, publish
// race and abort cascade of the capture.
//
// A replay of a capture taken on the same tree is faithful: every claim
// matches the head event and the log drains with Skipped()==0. When the
// execution diverges from the log (nondeterminism the recorder missed, or a
// deliberately perturbed replay), the sequencer degrades instead of
// deadlocking: a watchdog goroutine skips head events nobody claims, and
// abandons forced ordering entirely if a claimant wedges or the log is
// exhausted — Await then admits everything immediately (free-run) so the
// block still terminates. Faithful() reports whether forcing held end to
// end; FirstSkip() is the first event the live execution refused, which is
// itself a divergence diagnostic.
type Sequencer struct {
	mu        sync.Mutex
	cond      *sync.Cond
	events    []eventlog.Event
	next      int
	claimed   bool
	progress  uint64 // bumped on every claim/consume/release/skip
	skipped   int
	abandoned bool
	overrun   bool
	firstSkip *eventlog.Event

	stop     chan struct{}
	stopOnce sync.Once
	started  bool
	done     chan struct{}
}

// Watchdog cadence: after skipAfter of no progress with no claim held the
// head event is skipped; after abandonAfter (claim wedged, or skipping is
// not unblocking anyone) forced ordering is abandoned.
const (
	seqPollEvery    = 50 * time.Millisecond
	seqSkipAfter    = 1 * time.Second
	seqAbandonAfter = 5 * time.Second
)

// NewSequencer builds a sequencer over the gated events of a capture
// (non-gated kinds — park/resume/wasted and the watchdog/breaker markers —
// are filtered out). Call Start before execution and Stop after.
func NewSequencer(events []eventlog.Event) *Sequencer {
	s := &Sequencer{
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.events = make([]eventlog.Event, 0, len(events))
	for _, e := range events {
		if e.Op.Gated() {
			s.events = append(s.events, e)
		}
	}
	return s
}

// match reports whether e is the recorded slot for the given action.
// Item-keyed ops (read/publish/delta/drop) also require the item, so one
// incarnation's actions on distinct items cannot satisfy each other's
// claims; dispatch/abort/commit happen at most once per incarnation.
func match(e *eventlog.Event, op eventlog.Op, tx, inc int, item sag.ItemID) bool {
	if e.Op != op || int(e.Tx) != tx || int(e.Inc) != inc {
		return false
	}
	if op.ItemKeyed() && e.Item != item {
		return false
	}
	return true
}

// Await implements core.Gate: it blocks until the head of the log is this
// action's recorded slot, consumes it and returns true with the claim held
// (the caller performs, then calls Done). It returns false — without a
// claim — when dead reports the acting incarnation retired while waiting;
// if the head event is the caller's own slot at that moment it is consumed
// anyway, so a recorded action pre-empted by its own recorded abort does
// not wedge the log. After abandonment Await always returns true
// immediately and Done is a no-op.
func (s *Sequencer) Await(op eventlog.Op, tx, inc int, item sag.ItemID, dead func() bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.abandoned {
			return true
		}
		if dead != nil && dead() {
			if !s.claimed && s.next < len(s.events) && match(&s.events[s.next], op, tx, inc, item) {
				s.next++
				s.progress++
				s.cond.Broadcast()
			}
			return false
		}
		if !s.claimed {
			if s.next >= len(s.events) {
				// Log exhausted: the forced prefix is done; free-run the rest.
				s.abandoned = true
				s.overrun = true
				s.cond.Broadcast()
				return true
			}
			if match(&s.events[s.next], op, tx, inc, item) {
				s.next++
				s.claimed = true
				s.progress++
				return true
			}
		}
		s.cond.Wait()
	}
}

// Done releases the claim taken by a successful Await.
func (s *Sequencer) Done() {
	s.mu.Lock()
	if !s.abandoned {
		s.claimed = false
		s.progress++
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Start launches the liveness watchdog. The sequencer cannot distinguish "a
// waiter's turn has not come yet" from "nobody will ever claim the head
// event" (a divergent replay); the watchdog resolves the latter by time:
// skip the unclaimed head after seqSkipAfter of global inactivity, abandon
// forced ordering after seqAbandonAfter.
func (s *Sequencer) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	s.mu.Unlock()
	go s.watch()
}

// Stop terminates the watchdog and abandons forced ordering, releasing any
// still-parked waiters (call after the executor returned). Idempotent.
func (s *Sequencer) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		<-s.done
	}
	s.mu.Lock()
	s.abandoned = true
	s.cond.Broadcast()
	s.mu.Unlock()
}

// watch is the watchdog loop.
func (s *Sequencer) watch() {
	defer close(s.done)
	t := time.NewTicker(seqPollEvery)
	defer t.Stop()
	var last uint64
	stuck := time.Duration(0)
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		if s.abandoned {
			s.mu.Unlock()
			return
		}
		if s.progress != last {
			last = s.progress
			stuck = 0
		} else {
			stuck += seqPollEvery
		}
		switch {
		case stuck >= seqAbandonAfter:
			// Either a claimant wedged mid-action or skipping is not
			// unblocking anyone; give up on forced ordering entirely.
			s.abandoned = true
		case stuck >= seqSkipAfter && !s.claimed && s.next < len(s.events):
			// Nobody wants the head event: the live execution diverged from
			// the log. Record the refusal and move past it.
			if s.firstSkip == nil {
				e := s.events[s.next]
				s.firstSkip = &e
			}
			s.skipped++
			s.next++
			s.progress++
			last = s.progress
			stuck = 0
		}
		// Broadcast every poll: parked Awaits re-check their dead condition
		// (retirement can happen without a Done when a cascade consumed the
		// victim's events on its behalf).
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}

// Faithful reports whether the forced interleaving held end to end: every
// recorded event was claimed in order by the action that recorded it, with
// no skips and no abandonment (log overrun counts as unfaithful).
func (s *Sequencer) Faithful() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped == 0 && !s.overrun && s.next >= len(s.events)
}

// Skipped returns the number of recorded events the live execution refused.
func (s *Sequencer) Skipped() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.skipped
}

// Consumed returns how many recorded events were consumed (claims + dead
// consumes + skips).
func (s *Sequencer) Consumed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.next
}

// FirstSkip returns the first recorded event nobody claimed (nil when none):
// the point where the replayed execution first refused the captured
// schedule.
func (s *Sequencer) FirstSkip() *eventlog.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.firstSkip == nil {
		return nil
	}
	e := *s.firstSkip
	return &e
}

var _ core.Gate = (*Sequencer)(nil)
