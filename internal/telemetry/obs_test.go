package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dmvcc/internal/eventlog"
	"dmvcc/internal/sag"
	"dmvcc/internal/types"
)

func get(t *testing.T, srv *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.executions").Add(9)
	// The timeline's ledger supplies the block dump's stage spans.
	tl := NewTimeline(4)
	tl.Ledger.Enter(StageExecution, 1)
	tl.Ledger.Exit(StageExecution, 1)
	srv := httptest.NewServer(Handler(reg, syntheticLog(), nil, tl))
	defer srv.Close()

	code, body := get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics body: %v", err)
	}
	if snap.Counters["core.executions"] != 9 {
		t.Fatalf("/metrics counters = %+v", snap.Counters)
	}

	code, body = get(t, srv, "/telemetry/block/1")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/block/1: %d (%s)", code, body)
	}
	var dump struct {
		Block  int64 `json:"block"`
		Events []struct {
			Kind string `json:"kind"`
			Tx   int    `json:"tx"`
		} `json:"events"`
		Spans []struct {
			Track string `json:"track"`
			Block int64  `json:"block"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Block != 1 || len(dump.Events) != 7 || len(dump.Spans) != 1 {
		t.Fatalf("block dump: block=%d events=%d spans=%d", dump.Block, len(dump.Events), len(dump.Spans))
	}
	if dump.Events[0].Kind != "dispatch" {
		t.Fatalf("first event kind = %q", dump.Events[0].Kind)
	}
	if dump.Spans[0].Track != "execution" || dump.Spans[0].Block != 1 {
		t.Fatalf("block span = %+v", dump.Spans[0])
	}

	code, body = get(t, srv, "/telemetry/critpath/1")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/critpath/1: %d", code)
	}
	var cp CriticalPath
	if err := json.Unmarshal(body, &cp); err != nil {
		t.Fatal(err)
	}
	if len(cp.Hops) != 2 {
		t.Fatalf("critpath hops = %d", len(cp.Hops))
	}

	if code, _ := get(t, srv, "/telemetry/block/99"); code != http.StatusNotFound {
		t.Fatalf("unknown block: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/telemetry/block/x"); code != http.StatusBadRequest {
		t.Fatalf("bad block arg: %d, want 400", code)
	}
	if code, _ := get(t, srv, "/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}

func TestHandlerNilSources(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/metrics", "/telemetry/block/1", "/telemetry/critpath/1", "/telemetry/postmortem/1", "/telemetry/stall/1", "/telemetry/divergence/1"} {
		if code, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Fatalf("%s with nil sources: %d, want 404", path, code)
		}
	}
}

func TestDivergenceEndpoint(t *testing.T) {
	dv := NewDivergenceStore()
	dv.Put(7, map[string]any{"schema": "dmvcc/divergence/v1", "first_divergent_tx": 3})
	srv := httptest.NewServer(Handler(nil, nil, dv, nil))
	defer srv.Close()

	code, body := get(t, srv, "/telemetry/divergence/7")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/divergence/7: %d", code)
	}
	if !strings.Contains(string(body), `"first_divergent_tx": 3`) {
		t.Fatalf("report not served back: %s", body)
	}
	if code, _ := get(t, srv, "/telemetry/divergence/8"); code != http.StatusNotFound {
		t.Fatalf("missing block: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/telemetry/divergence/x"); code != http.StatusBadRequest {
		t.Fatalf("bad block arg: %d, want 400", code)
	}
	if got := dv.Blocks(); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Blocks() = %v, want [7]", got)
	}
	// Nil-store methods are safe no-ops.
	var nils *DivergenceStore
	nils.Put(1, nil)
	if nils.Get(1) != nil || nils.Blocks() != nil {
		t.Fatal("nil store must behave empty")
	}
}

func TestPublishExpvarRebinds(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n").Add(1)
	b.Counter("n").Add(2)
	PublishExpvar("test.rebind", a)
	// Republishing the same name must rebind, not panic.
	PublishExpvar("test.rebind", b)

	srv := httptest.NewServer(Handler(nil, nil, nil, nil))
	defer srv.Close()
	code, body := get(t, srv, "/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars: %d", code)
	}
	if !strings.Contains(string(body), `"test.rebind"`) {
		t.Fatal("/debug/vars missing published registry")
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(vars["test.rebind"], &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["n"] != 2 {
		t.Fatalf("expvar shows counter %d, want rebind target's 2", snap.Counters["n"])
	}
}

func TestServeLifecycle(t *testing.T) {
	reg := NewRegistry()
	addr, stop, err := Serve("127.0.0.1:0", reg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics via Serve: %d", resp.StatusCode)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestServeGracefulShutdown pins Serve's shutdown contract: stop lets an
// in-flight request finish (rather than killing its connection), refuses new
// connections afterwards, and returns without error once the serve goroutine
// has exited.
func TestServeGracefulShutdown(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("n").Add(1)
	addr, stop, err := Serve("127.0.0.1:0", reg, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Hold a request in flight across the stop call: open the connection
	// and send the request, then stop concurrently, then read the response.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()

	reader := bufio.NewReader(conn)
	resp, err := http.ReadResponse(reader, nil)
	if err != nil {
		t.Fatalf("in-flight request killed by shutdown: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: %d", resp.StatusCode)
	}

	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("stop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return")
	}

	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after stop")
	}
}

// TestMetricsPrometheus checks the /metrics content negotiation and the
// exposition-format invariants: every histogram series ends in an +Inf
// bucket equal to its count, with matching _sum and _count samples.
func TestMetricsPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("core.executions").Add(9)
	h := reg.Histogram("chain.dmvcc.block_exec_ns")
	h.Observe(1500)
	h.Observe(2500)
	h.Observe(5e10) // overflow bucket
	srv := httptest.NewServer(Handler(reg, nil, nil, nil))
	defer srv.Close()

	code, body := get(t, srv, "/metrics?format=prom")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=prom: %d", code)
	}
	text := string(body)
	for _, w := range []string{
		"# TYPE core_executions counter",
		"core_executions 9",
		"# TYPE chain_dmvcc_block_exec_ns histogram",
		`chain_dmvcc_block_exec_ns_bucket{le="+Inf"} 3`,
		"chain_dmvcc_block_exec_ns_count 3",
		"chain_dmvcc_block_exec_ns_sum 5.0000004e+10",
	} {
		if !strings.Contains(text, w) {
			t.Errorf("exposition missing %q in:\n%s", w, text)
		}
	}

	// Prometheus-style Accept header selects the exposition format too.
	req, _ := http.NewRequest("GET", srv.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4;q=0.5,*/*;q=0.1")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Accept: text/plain negotiated %q", ct)
	}

	// The default remains JSON (existing scrapers parse it).
	code, body = get(t, srv, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: %d", code)
	}
	var snap RegistrySnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("default /metrics is no longer JSON: %v", err)
	}
}

// TestStallEndpoint serves watchdog diagnostics for a block and checks both
// representations plus the 404/400 contract.
func TestStallEndpoint(t *testing.T) {
	lg := eventlog.New()
	lg.Begin(3, 4)
	lg.AddReport(3, StallReport{
		Block: 3, Attempt: 1, Progress: 17, Running: 0, IdleWorkers: 4,
		Pending: []StallTx{{Tx: 2, Inc: 1}},
		Waiters: []StallWaiter{{Item: "bal:aa", ReaderTx: 2, BlockedOn: 1}},
	})
	lg.AddReport(3, StallReport{Block: 3, Attempt: 2, Progress: 17})
	srv := httptest.NewServer(Handler(nil, lg, nil, nil))
	defer srv.Close()

	code, body := get(t, srv, "/telemetry/stall/3")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/stall/3: %d (%s)", code, body)
	}
	var dump struct {
		Block  int64         `json:"block"`
		Stalls []StallReport `json:"stalls"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Block != 3 || len(dump.Stalls) != 2 {
		t.Fatalf("stall dump: block=%d stalls=%d", dump.Block, len(dump.Stalls))
	}
	if dump.Stalls[0].Schema != StallSchema || dump.Stalls[0].Seq != 0 || dump.Stalls[1].Seq != 1 {
		t.Fatalf("stall reports = %+v", dump.Stalls)
	}
	if len(dump.Stalls[0].Waiters) != 1 || dump.Stalls[0].Waiters[0].BlockedOn != 1 {
		t.Fatalf("waiters = %+v", dump.Stalls[0].Waiters)
	}

	code, body = get(t, srv, "/telemetry/stall/3?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), "stall in block 3") {
		t.Fatalf("text stall report: %d\n%s", code, body)
	}
	if code, _ := get(t, srv, "/telemetry/stall/99"); code != http.StatusNotFound {
		t.Fatalf("unknown block: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/telemetry/stall/x"); code != http.StatusBadRequest {
		t.Fatalf("bad arg: %d, want 400", code)
	}
}

// TestStallEndpointGracefulShutdown is the satellite regression alongside
// TestServeGracefulShutdown: an in-flight /telemetry/stall/<n> request must
// survive stop() (srv.Shutdown drains it) and the listener must refuse new
// connections afterwards.
func TestStallEndpointGracefulShutdown(t *testing.T) {
	lg := eventlog.New()
	lg.Begin(5, 1)
	lg.AddReport(5, StallReport{Block: 5, Attempt: 1})
	addr, stop, err := Serve("127.0.0.1:0", nil, lg, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /telemetry/stall/5 HTTP/1.1\r\nHost: x\r\n\r\n")); err != nil {
		t.Fatal(err)
	}

	stopped := make(chan error, 1)
	go func() { stopped <- stop() }()

	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("in-flight stall request killed by shutdown: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), StallSchema) {
		t.Fatalf("in-flight stall request: %d\n%s", resp.StatusCode, body)
	}

	select {
	case err := <-stopped:
		if err != nil {
			t.Fatalf("stop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stop did not return")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after stop")
	}
}

// TestPostmortemEndpoint serves a synthetic block record and checks both
// representations.
func TestPostmortemEndpoint(t *testing.T) {
	lg := eventlog.New()
	lg.Begin(7, 2)
	lg.Append(abortEv(1, 0, 0, -1, 0, sag.BalanceItem(types.Address{0xaa}), -1, eventlog.AbortUnpredictedWrite, 42))
	srv := httptest.NewServer(Handler(nil, lg, nil, nil))
	defer srv.Close()

	code, body := get(t, srv, "/telemetry/postmortem/7")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/postmortem/7: %d (%s)", code, body)
	}
	var pm PostMortem
	if err := json.Unmarshal(body, &pm); err != nil {
		t.Fatal(err)
	}
	if pm.Schema != PostMortemSchema || pm.Block != 7 || pm.Aborts != 1 || pm.WastedGas != 42 {
		t.Fatalf("post-mortem = %+v", pm)
	}

	code, body = get(t, srv, "/telemetry/postmortem/7?format=text")
	if code != http.StatusOK || !strings.Contains(string(body), "post-mortem of block 7") {
		t.Fatalf("text post-mortem: %d\n%s", code, body)
	}

	if code, _ := get(t, srv, "/telemetry/postmortem/99"); code != http.StatusNotFound {
		t.Fatalf("unknown block: %d, want 404", code)
	}
	if code, _ := get(t, srv, "/telemetry/postmortem/x"); code != http.StatusBadRequest {
		t.Fatalf("bad arg: %d, want 400", code)
	}
}
