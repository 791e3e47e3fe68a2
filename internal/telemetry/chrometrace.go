package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
)

// Chrome trace-event constants: pid layout and the flow-event category.
// Pipeline-stage intervals live in their own process so Perfetto renders the
// analysis/execution overlap as a separate track group from the per-worker
// scheduler timelines of each block.
const (
	pipelinePid = 1 // coarse stage intervals: analysis / execution / commit tracks
	blockPidMin = 100
)

// chromeEvent is one entry of the Chrome trace-event JSON array. Timestamps
// and durations are microseconds (the format's unit).
type chromeEvent struct {
	Name string         `json:"name,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   int64          `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object trace container Perfetto and chrome://tracing
// both accept.
type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// blockPid maps a block number onto its scheduler process id.
func blockPid(block int64) int64 { return blockPidMin + block }

// itemLabel renders an item id for trace args (empty for the zero item).
func itemLabel(id sag.ItemID) string {
	if id.Kind == 0 {
		return ""
	}
	return id.String()
}

// ExportChrome writes the log's retained blocks as Chrome trace-event JSON,
// with timestamps relative to the log's epoch. The layout:
//
//   - pid 1 "pipeline": one thread per stage (analysis, execution, commit)
//     showing pipeline-stage overlap across blocks, read from the stage
//     ledger's interval log (nil ledger = no pipeline tracks);
//   - pid 100+n "block n scheduler": one thread per worker goroutine, with
//     an "X" slice for every running stretch of a transaction incarnation
//     (dispatch→park, resume→park/abort/commit), abort instants, and flow
//     arrows from the publish that unblocked a parked reader to the
//     reader's resume.
func ExportChrome(w io.Writer, log *eventlog.Log, ledger *StageLedger) error {
	out := chromeFile{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	add := func(ev chromeEvent) { out.TraceEvents = append(out.TraceEvents, ev) }
	meta := func(pid, tid int64, kind, name string) {
		add(chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}})
	}

	// Coarse pipeline-stage intervals, shifted from the ledger's clock onto
	// the log's.
	if ledger != nil && log != nil {
		shift := int64(ledger.Epoch().Sub(log.Epoch()))
		named := false
		for _, st := range Stages() {
			ivs := ledger.Intervals(st)
			if len(ivs) == 0 {
				continue
			}
			if !named {
				meta(pipelinePid, 0, "process_name", "pipeline")
				named = true
			}
			meta(pipelinePid, int64(st), "thread_name", st.String())
			for _, iv := range ivs {
				add(chromeEvent{
					Name: fmt.Sprintf("%s block %d", st, iv.Block),
					Ph:   "X", TS: usec(iv.Start + shift), Dur: usec(iv.End - iv.Start),
					Pid: pipelinePid, Tid: int64(st),
					Args: map[string]any{"block": iv.Block},
				})
			}
		}
	}

	// Per-block scheduler timelines.
	flowID := int64(0)
	for _, b := range log.Blocks() {
		events := b.Events
		if len(events) == 0 {
			continue
		}
		pid := blockPid(b.Number)
		meta(pid, 0, "process_name", fmt.Sprintf("block %d scheduler", b.Number))
		workers := map[int32]bool{}
		for _, ev := range events {
			if ev.Worker >= 0 && !workers[ev.Worker] {
				workers[ev.Worker] = true
				meta(pid, int64(ev.Worker), "thread_name", fmt.Sprintf("worker %d", ev.Worker))
			}
		}

		// Reconstruct running slices per (tx, inc): a slice opens at
		// dispatch or resume and closes at the next park, abort, or commit
		// of the same incarnation.
		type sliceKey struct{ tx, inc int32 }
		open := map[sliceKey]eventlog.Event{}
		slice := func(from eventlog.Event, endTS int64, state string) {
			add(chromeEvent{
				Name: fmt.Sprintf("tx%d#%d", from.Tx, from.Inc),
				Ph:   "X", TS: usec(from.TS), Dur: usec(endTS - from.TS),
				Pid: pid, Tid: int64(from.Worker),
				Args: map[string]any{"tx": from.Tx, "inc": from.Inc, "end": state},
			})
		}
		for i, ev := range events {
			key := sliceKey{ev.Tx, ev.Inc}
			switch ev.Op {
			case eventlog.OpDispatch, eventlog.OpResume:
				open[key] = ev
			case eventlog.OpPark, eventlog.OpAbort, eventlog.OpCommit:
				if from, ok := open[key]; ok {
					slice(from, ev.TS, ev.Op.String())
					delete(open, key)
				}
			}
			switch ev.Op {
			case eventlog.OpAbort:
				add(chromeEvent{
					Name: fmt.Sprintf("abort tx%d#%d", ev.Tx, ev.Inc),
					Ph:   "i", S: "t", TS: usec(ev.TS), Pid: pid, Tid: int64(ev.Worker),
					Args: map[string]any{"cause_tx": ev.Src},
				})
			case eventlog.OpResume:
				// Arrow from the publish (or drop-at-abort) by the blocking
				// writer that released this reader: the latest publish-like
				// event by tx ev.Src on ev.Item before the resume.
				src := -1
				for j := i - 1; j >= 0 && src < 0; j-- {
					p := &events[j]
					if p.Tx != ev.Src {
						continue
					}
					switch p.Op {
					case eventlog.OpPublish, eventlog.OpDelta:
						if p.Item == ev.Item {
							src = j
						}
					case eventlog.OpAbort:
						src = j
					}
				}
				if src < 0 {
					continue
				}
				flowID++
				args := map[string]any{"item": itemLabel(ev.Item)}
				add(chromeEvent{
					Name: "unblock", Cat: "dep", Ph: "s", ID: flowID,
					TS: usec(events[src].TS), Pid: pid, Tid: int64(events[src].Worker), Args: args,
				})
				add(chromeEvent{
					Name: "unblock", Cat: "dep", Ph: "f", BP: "e", ID: flowID,
					TS: usec(ev.TS), Pid: pid, Tid: int64(ev.Worker), Args: args,
				})
			}
		}
		// Slices left open (aborted while parked, or truncated capture)
		// close at their last observed event for a visible residue.
		for key, from := range open {
			last := from.TS
			for _, ev := range events {
				if ev.Tx == key.tx && ev.Inc == key.inc && ev.TS > last {
					last = ev.TS
				}
			}
			if last > from.TS {
				slice(from, last, "truncated")
			}
		}
	}

	sort.SliceStable(out.TraceEvents, func(i, j int) bool {
		a, b := out.TraceEvents[i], out.TraceEvents[j]
		if (a.Ph == "M") != (b.Ph == "M") {
			return a.Ph == "M" // metadata first
		}
		return a.TS < b.TS
	})

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
