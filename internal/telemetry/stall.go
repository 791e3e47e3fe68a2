package telemetry

import (
	"fmt"
	"strings"

	"dmvcc/internal/eventlog"
)

// StallSchema versions the stall-report JSON layout.
const StallSchema = "dmvcc/stall/v1"

// StallWaiter is one reader parked on a pending version at the moment the
// watchdog fired: which item it is waiting on, who is waiting, and whose
// unfinished write it is parked behind.
type StallWaiter struct {
	Item      string `json:"item"`
	ReaderTx  int    `json:"reader_tx"`
	BlockedOn int    `json:"blocked_on_tx"`
}

// StallTx is one transaction that had not finished when the watchdog fired.
type StallTx struct {
	Tx  int `json:"tx"`
	Inc int `json:"inc"`
}

// StallReport is the diagnostic dump the per-block stall watchdog emits when
// it detects no scheduler progress within its deadline: the worker-pool
// state, every unfinished transaction, and every parked waiter, so a stalled
// block can be debugged post hoc from /telemetry/stall/<n>.
type StallReport struct {
	Schema string `json:"schema"`
	Block  int64  `json:"block"`
	// Seq orders the reports of one block (the watchdog can fire several
	// recovery rounds); stamped by Stalls.
	Seq int `json:"seq"`
	// Attempt is the recovery round (1-based).
	Attempt int `json:"attempt"`
	// Progress is the scheduler's progress counter (publishes + completions
	// + processed abort victims) at detection time.
	Progress int64 `json:"progress"`

	// Worker-pool occupancy at detection time.
	Running     int `json:"running"`
	ReadyTasks  int `json:"ready_tasks"`
	Resumers    int `json:"resumers"`
	IdleWorkers int `json:"idle_workers"`

	Pending []StallTx     `json:"pending,omitempty"`
	Waiters []StallWaiter `json:"waiters,omitempty"`
}

// Render formats the report for terminal output.
func (r *StallReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "stall in block %d (attempt %d): progress=%d running=%d ready=%d resumers=%d idle=%d\n",
		r.Block, r.Attempt, r.Progress, r.Running, r.ReadyTasks, r.Resumers, r.IdleWorkers)
	if len(r.Pending) > 0 {
		sb.WriteString("  unfinished:")
		for _, p := range r.Pending {
			fmt.Fprintf(&sb, " tx%d/inc%d", p.Tx, p.Inc)
		}
		sb.WriteString("\n")
	}
	for _, w := range r.Waiters {
		fmt.Fprintf(&sb, "  tx%d parked on %s behind tx%d\n", w.ReaderTx, w.Item, w.BlockedOn)
	}
	return sb.String()
}

// Stalls returns the watchdog dumps attached to the block, in detection
// order, stamped with the schema and their position.
func Stalls(b *eventlog.Block) []StallReport {
	if b == nil {
		return nil
	}
	var out []StallReport
	for _, r := range b.Reports {
		if rep, ok := r.(StallReport); ok {
			rep.Schema = StallSchema
			rep.Seq = len(out)
			out = append(out, rep)
		}
	}
	return out
}
