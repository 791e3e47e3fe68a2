package replay

import (
	"encoding/json"
	"fmt"
	"os"

	"dmvcc/internal/core"
	"dmvcc/internal/eventlog"
)

// CaptureSchema versions the on-disk capture format.
const CaptureSchema = "dmvcc/replay-capture/v1"

// Recipe is everything needed to regenerate a capture's workload and fault
// schedule from scratch: the divergence experiment's deterministic
// generators make (Seed, Txs, Class, Block) sufficient to rebuild the exact
// transactions, pre-state and injected faults of the recorded block. Keep
// optionally restricts the block to a subset of its transaction indices
// (the shrinker's output); nil means the full block.
type Recipe struct {
	Seed     int64  `json:"seed"`
	Txs      int    `json:"txs"`
	Class    string `json:"class"`     // fault class ("" = none)
	ClassIdx int    `json:"class_idx"` // injector seed offset index
	Block    int    `json:"block"`     // 0-based block number within the run
	Backend  string `json:"backend"`   // state backend ("trie" / "flat")
	Keep     []int  `json:"keep,omitempty"`
}

// Capture is one recorded block execution: the regeneration recipe, the
// environment that shaped the schedule, the observed outcome and the full
// ordered event log.
type Capture struct {
	Schema       string               `json:"schema"`
	Recipe       Recipe               `json:"recipe"`
	Threads      int                  `json:"threads"`
	GoMaxProcs   int                  `json:"gomaxprocs"`
	SerialRoot   string               `json:"serial_root"`
	ParallelRoot string               `json:"parallel_root"`
	Stats        core.Stats           `json:"stats"`
	Events       []eventlog.EventJSON `json:"events"`
}

// DecodedEvents returns the capture's event log.
func (c *Capture) DecodedEvents() ([]eventlog.Event, error) {
	return eventlog.DecodeEvents(c.Events)
}

// Replayable reports whether the capture can be deterministically replayed.
// Captures containing watchdog or breaker events are refused: those paths
// are wall-clock driven (forced stall recovery, degradation to serial), so
// the recorded interleaving is not a pure function of the schedule.
func (c *Capture) Replayable() error {
	if c.Schema != CaptureSchema {
		return fmt.Errorf("capture schema %q, want %q", c.Schema, CaptureSchema)
	}
	for _, e := range c.Events {
		if e.Op == eventlog.OpWatchdog.String() {
			return fmt.Errorf("capture contains a watchdog recovery event (seq %d): wall-clock driven, not replayable", e.Seq)
		}
		if e.Op == eventlog.OpBreaker.String() {
			return fmt.Errorf("capture contains a circuit-breaker event (seq %d): degraded blocks are not replayable", e.Seq)
		}
	}
	return nil
}

// WriteFile writes the capture as indented JSON.
func (c *Capture) WriteFile(path string) error {
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// ReadCapture loads a capture file and validates its schema.
func ReadCapture(path string) (*Capture, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Capture
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if c.Schema != CaptureSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, c.Schema, CaptureSchema)
	}
	return &c, nil
}

// DeterministicStats projects a Stats down to the fields that a faithful
// forced replay must reproduce exactly. Timing-dependent fields —
// BlockedReads (whether a read parked depends on wall-clock arrival, not
// the linearized order), WakeEvents, DispatchRuns/DispatchedTxs (batch
// boundaries), StallRecoveries — are zeroed.
func DeterministicStats(s core.Stats) core.Stats {
	return core.Stats{
		Executions:     s.Executions,
		Replays:        s.Replays,
		Aborts:         s.Aborts,
		EarlyPublishes: s.EarlyPublishes,
		DeltaPublishes: s.DeltaPublishes,
		Requeues:       s.Requeues,
		Panics:         s.Panics,
		MaxIncarnation: s.MaxIncarnation,
	}
}
