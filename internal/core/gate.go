package core

import (
	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
)

// Gate forces a recorded interleaving back onto a live execution. Every
// gated scheduler action calls Await before performing and Done after: the
// replayer's sequencer admits exactly the action matching the next recorded
// event, one at a time, so the replayed block observes the same resolved
// reads, publish order and abort cascade as the capture.
//
// Await returns false when the acting incarnation died while waiting (dead
// reports it); the caller must skip the action as it would for any stale
// incarnation. dead may be nil for actions that must always perform (abort
// cleanup drops).
type Gate interface {
	Await(op eventlog.Op, tx, inc int, item sag.ItemID, dead func() bool) bool
	Done()
}
