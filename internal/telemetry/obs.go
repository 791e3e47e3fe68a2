package telemetry

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmvcc/internal/eventlog"
)

// expvar.Publish panics on duplicate names and has no replace API, so the
// published closure reads through this map: republishing a name rebinds it
// to the new registry without touching expvar again.
var (
	expvarMu   sync.Mutex
	expvarRegs = map[string]*Registry{}
)

// PublishExpvar exposes the registry's live snapshot under the given expvar
// name (visible at /debug/vars). Republishing the same name rebinds it to
// the new registry.
func PublishExpvar(name string, reg *Registry) {
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if _, ok := expvarRegs[name]; !ok {
		bound := name
		expvar.Publish(name, expvar.Func(func() any {
			expvarMu.Lock()
			r := expvarRegs[bound]
			expvarMu.Unlock()
			if r == nil {
				return nil
			}
			return r.Snapshot()
		}))
	}
	expvarRegs[name] = reg
}

// DivergenceStore keeps per-block divergence audit reports for the
// /telemetry/divergence/<n> endpoint. Values are stored as opaque any (the
// report type lives in internal/replay, which imports this package) and are
// served back as JSON verbatim.
type DivergenceStore struct {
	mu      sync.Mutex
	reports map[int64]any
}

// NewDivergenceStore returns an empty store.
func NewDivergenceStore() *DivergenceStore {
	return &DivergenceStore{reports: make(map[int64]any)}
}

// Put records block's divergence report (nil-safe).
func (d *DivergenceStore) Put(block int64, report any) {
	if d == nil {
		return
	}
	d.mu.Lock()
	d.reports[block] = report
	d.mu.Unlock()
}

// Get returns block's report, or nil.
func (d *DivergenceStore) Get(block int64) any {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reports[block]
}

// Blocks lists the block numbers with stored reports (unordered).
func (d *DivergenceStore) Blocks() []int64 {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]int64, 0, len(d.reports))
	for n := range d.reports {
		out = append(out, n)
	}
	return out
}

// endpointInfo describes one introspection endpoint for the /telemetry/
// index page.
type endpointInfo struct {
	Path, Desc string
	Available  bool
}

// Handler returns the introspection mux: net/http/pprof under
// /debug/pprof/, expvar under /debug/vars, the metrics registry snapshot at
// /metrics (JSON by default; Prometheus text exposition via ?format=prom or
// an Accept header naming text/plain first), per-block telemetry dumps at
// /telemetry/block/<n>, the block critical path at /telemetry/critpath/<n>,
// the conflict post-mortem at /telemetry/postmortem/<n> (?format=text for
// the rendered report), the watchdog's stall diagnostics at
// /telemetry/stall/<n>, divergence audit reports at
// /telemetry/divergence/<n>, the rolling node timeline at
// /telemetry/timeline (JSON ring-buffer snapshot + ledger summary + live
// gap audit) with its live dashboard at /telemetry/dashboard, and an index
// of all of the above at /telemetry/. The per-block endpoints are readers of
// the one scheduler event log and answer 404 for blocks it never recorded or
// has evicted. reg, log, dv and tl may be nil; the corresponding endpoints
// then report 404.
func Handler(reg *Registry, log *eventlog.Log, dv *DivergenceStore, tl *Timeline) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if reg == nil {
			http.NotFound(w, r)
			return
		}
		if wantsPrometheus(r) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.Snapshot().WritePrometheus(w)
			return
		}
		writeJSON(w, reg.Snapshot())
	})

	blockArg := func(r *http.Request, prefix string) (int64, error) {
		s := strings.TrimPrefix(r.URL.Path, prefix)
		return strconv.ParseInt(strings.Trim(s, "/"), 10, 64)
	}

	// blockOf resolves the <n> of a per-block endpoint to the log's record,
	// writing the 400/404 itself when it cannot.
	blockOf := func(w http.ResponseWriter, r *http.Request, prefix string) *eventlog.Block {
		if log == nil {
			http.NotFound(w, r)
			return nil
		}
		n, err := blockArg(r, prefix)
		if err != nil {
			http.Error(w, "usage: "+prefix+"<n>", http.StatusBadRequest)
			return nil
		}
		b := log.Block(n)
		if b == nil {
			http.Error(w, fmt.Sprintf("block %d not recorded (or evicted)", n), http.StatusNotFound)
		}
		return b
	}

	mux.HandleFunc("/telemetry/block/", func(w http.ResponseWriter, r *http.Request) {
		b := blockOf(w, r, "/telemetry/block/")
		if b == nil {
			return
		}
		type jsonEvent struct {
			TS     int64  `json:"ts_ns"`
			Kind   string `json:"kind"`
			Tx     int32  `json:"tx"`
			Inc    int32  `json:"inc"`
			Worker int32  `json:"worker"`
			Item   string `json:"item,omitempty"`
			Other  int32  `json:"other,omitempty"`
		}
		type jsonSpan struct {
			Track string `json:"track"`
			StageInterval
		}
		out := struct {
			Block  int64       `json:"block"`
			Events []jsonEvent `json:"events"`
			Spans  []jsonSpan  `json:"spans,omitempty"`
		}{Block: b.Number, Events: make([]jsonEvent, 0, len(b.Events))}
		for _, ev := range b.Events {
			out.Events = append(out.Events, jsonEvent{
				TS: ev.TS, Kind: ev.Op.String(), Tx: ev.Tx, Inc: ev.Inc,
				Worker: ev.Worker, Item: itemLabel(ev.Item), Other: ev.Src,
			})
		}
		if tl != nil {
			for _, st := range Stages() {
				for _, iv := range tl.Ledger.Intervals(st) {
					if iv.Block == b.Number {
						out.Spans = append(out.Spans, jsonSpan{st.String(), iv})
					}
				}
			}
		}
		writeJSON(w, out)
	})

	mux.HandleFunc("/telemetry/critpath/", func(w http.ResponseWriter, r *http.Request) {
		b := blockOf(w, r, "/telemetry/critpath/")
		if b == nil {
			return
		}
		cp := BlockCriticalPath(b)
		if cp == nil {
			http.Error(w, fmt.Sprintf("no committed transactions recorded for block %d", b.Number), http.StatusNotFound)
			return
		}
		writeJSON(w, cp)
	})

	mux.HandleFunc("/telemetry/stall/", func(w http.ResponseWriter, r *http.Request) {
		b := blockOf(w, r, "/telemetry/stall/")
		if b == nil {
			return
		}
		reps := Stalls(b)
		if len(reps) == 0 {
			http.Error(w, fmt.Sprintf("no stall diagnostics for block %d", b.Number), http.StatusNotFound)
			return
		}
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			for i := range reps {
				_, _ = w.Write([]byte(reps[i].Render()))
			}
			return
		}
		writeJSON(w, struct {
			Block  int64         `json:"block"`
			Stalls []StallReport `json:"stalls"`
		}{b.Number, reps})
	})

	mux.HandleFunc("/telemetry/postmortem/", func(w http.ResponseWriter, r *http.Request) {
		b := blockOf(w, r, "/telemetry/postmortem/")
		if b == nil {
			return
		}
		pm := BlockPostMortem(b)
		if r.URL.Query().Get("format") == "text" {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = w.Write([]byte(pm.Render()))
			return
		}
		writeJSON(w, pm)
	})

	mux.HandleFunc("/telemetry/divergence/", func(w http.ResponseWriter, r *http.Request) {
		if dv == nil {
			http.NotFound(w, r)
			return
		}
		n, err := blockArg(r, "/telemetry/divergence/")
		if err != nil {
			http.Error(w, "usage: /telemetry/divergence/<n>", http.StatusBadRequest)
			return
		}
		rep := dv.Get(n)
		if rep == nil {
			http.Error(w, fmt.Sprintf("no divergence report for block %d", n), http.StatusNotFound)
			return
		}
		writeJSON(w, rep)
	})

	mux.HandleFunc("/telemetry/timeline", func(w http.ResponseWriter, r *http.Request) {
		if tl == nil {
			http.NotFound(w, r)
			return
		}
		writeJSON(w, tl.Snapshot())
	})

	mux.HandleFunc("/telemetry/dashboard", func(w http.ResponseWriter, r *http.Request) {
		if tl == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(dashboardHTML))
	})

	// Index: every registered endpoint in one place, so the surface is
	// discoverable without the README. Exact-path only — unknown
	// /telemetry/* subpaths keep 404ing.
	endpoints := []endpointInfo{
		{"/metrics", "metrics registry (JSON; ?format=prom for Prometheus exposition)", reg != nil},
		{"/debug/pprof/", "net/http/pprof profiles", true},
		{"/debug/vars", "expvar (registry published under \"telemetry\")", true},
		{"/telemetry/timeline", "rolling node time series + occupancy ledger summary + live gap audit (JSON)", tl != nil},
		{"/telemetry/dashboard", "live timeline dashboard (self-contained HTML)", tl != nil},
		{"/telemetry/block/<n>", "per-block scheduler event log", log != nil},
		{"/telemetry/critpath/<n>", "per-block critical path", log != nil},
		{"/telemetry/postmortem/<n>", "conflict post-mortem (?format=text to render)", log != nil},
		{"/telemetry/stall/<n>", "stall-watchdog diagnostics (?format=text to render)", log != nil},
		{"/telemetry/divergence/<n>", "divergence audit report", dv != nil},
	}
	mux.HandleFunc("/telemetry/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/telemetry/" && r.URL.Path != "/telemetry" {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			type jsonEndpoint struct {
				Path      string `json:"path"`
				Desc      string `json:"desc"`
				Available bool   `json:"available"`
			}
			out := make([]jsonEndpoint, 0, len(endpoints))
			for _, e := range endpoints {
				out = append(out, jsonEndpoint{e.Path, e.Desc, e.Available})
			}
			writeJSON(w, out)
			return
		}
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		var sb strings.Builder
		sb.WriteString("<!doctype html><html><head><meta charset=\"utf-8\"><title>dmvcc telemetry</title>" +
			"<style>body{font:14px/1.6 ui-sans-serif,system-ui,sans-serif;margin:24px;max-width:720px}" +
			"code{background:rgba(127,127,127,.12);padding:1px 5px;border-radius:4px}" +
			".off{opacity:.45}</style></head><body><h1>dmvcc telemetry endpoints</h1><ul>")
		for _, e := range endpoints {
			cls, note := "", ""
			if !e.Available {
				cls, note = " class=\"off\"", " (not attached on this run)"
			}
			link := e.Path
			if i := strings.IndexByte(link, '<'); i >= 0 {
				link = link[:i]
			}
			fmt.Fprintf(&sb, "<li%s><a href=%q><code>%s</code></a> — %s%s</li>",
				cls, link, e.Path, e.Desc, note)
		}
		sb.WriteString("</ul></body></html>")
		_, _ = w.Write([]byte(sb.String()))
	})

	return mux
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format=prom wins; otherwise an Accept header whose first preference is
// text/plain (how stock Prometheus scrapes) selects the exposition format.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	if i := strings.IndexByte(accept, ','); i >= 0 {
		accept = accept[:i]
	}
	if i := strings.IndexByte(accept, ';'); i >= 0 {
		accept = accept[:i]
	}
	return strings.TrimSpace(accept) == "text/plain"
}

// serveShutdownTimeout bounds how long Serve's stop function waits for
// in-flight requests before forcing connections closed.
const serveShutdownTimeout = 5 * time.Second

// Serve starts the introspection endpoint on addr (e.g. ":6060") in a
// background goroutine, publishes the registry under the "telemetry" expvar
// name, and returns the bound address plus a shutdown function. The stop
// function shuts the server down gracefully — it stops accepting, lets
// in-flight requests drain (bounded by serveShutdownTimeout, after which
// connections are forced closed), and only returns once the serve goroutine
// has exited, so callers never leak it past benchmark exit.
func Serve(addr string, reg *Registry, log *eventlog.Log, dv *DivergenceStore, tl *Timeline) (string, func() error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	if reg != nil {
		PublishExpvar("telemetry", reg)
	}
	srv := &http.Server{Handler: Handler(reg, log, dv, tl)}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stop := func() error {
		ctx, cancel := context.WithTimeout(context.Background(), serveShutdownTimeout)
		defer cancel()
		err := srv.Shutdown(ctx)
		if err != nil {
			// Drain stragglers: force-close whatever outlived the grace
			// period so the serve goroutine still exits before we return.
			_ = srv.Close()
		}
		serveErr := <-done
		if err == nil && serveErr != http.ErrServerClosed {
			err = serveErr
		}
		return err
	}
	return ln.Addr().String(), stop, nil
}
