package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval of the staged loop. Spans of one block share
// Block ("workload/height"); Parent is the ID of the span that caused it
// (-1 for a block span).
type span struct {
	ID     int
	Parent int
	Name   string
	Block  string
	Start  time.Duration // offset from the recorder's start
	End    time.Duration
}

// recorder keeps the staged loop's spans in memory until the run ends. It is
// used from one goroutine only: spans wrap calls, nothing inside the program
// under test reports into it.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span now and returns its ID.
func (r *recorder) begin(name string, parent int, block string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Block: block, Start: time.Since(r.t0)})
	return id
}

// end closes span id now and returns its duration.
func (r *recorder) end(id int) time.Duration {
	s := &r.spans[id]
	s.End = time.Since(r.t0)
	return s.End - s.Start
}

// add records a span synthesised from reported durations rather than
// observed, clipped to its parent so self time stays non-negative.
func (r *recorder) add(name string, parent int, start, dur time.Duration) time.Duration {
	p := r.spans[parent]
	if start < p.Start {
		start = p.Start
	}
	end := start + dur
	if end > p.End {
		end = p.End
	}
	if end < start {
		end = start
	}
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Block: p.Block, Start: start, End: end})
	return end
}

// selfTimes returns, per span ID, the span's duration minus the part of it
// its children cover. Children may overlap each other; the covered part is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = (s.End - s.Start) - covered
	}
	return out
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// depth returns how many ancestors span id has.
func depth(spans []span, id int) int {
	d := 0
	for p := spans[id].Parent; p >= 0; p = spans[p].Parent {
		d++
	}
	return d
}

// writeChrome writes the spans as a Chrome trace-event file (loadable in
// Perfetto, checked by cmd/tracecheck): one duration slice per span on a
// track per nesting depth, each carrying its id, parent and block.
func writeChrome(path, workload string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  *float64       `json:"dur,omitempty"`
		Args map[string]any `json:"args,omitempty"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "benchmark " + workload}}}
	for tid, track := range []string{"block", "layer", "commit phase"} {
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid, Args: map[string]any{"name": track}})
	}
	for _, s := range spans {
		dur := us(s.End - s.Start)
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: depth(spans, s.ID), Ts: us(s.Start), Dur: &dur,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "block": s.Block},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
