package telemetry

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTimelineEndpoint(t *testing.T) {
	tl := NewTimeline(16)
	ms := int64(time.Millisecond)
	putInterval(tl.Ledger, StageExecution, 1, 0, 10*ms)
	putInterval(tl.Ledger, StageExecution, 2, 60*ms, 70*ms)
	tl.Ledger.NoteBlock(64, 2)
	tl.Series.SampleNow()

	srv := httptest.NewServer(Handler(nil, nil, nil, tl))
	defer srv.Close()

	code, body := get(t, srv, "/telemetry/timeline")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/timeline: %d (%s)", code, body)
	}
	var snap TimelineSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("timeline body: %v", err)
	}
	if snap.Schema != TimelineSchema {
		t.Fatalf("schema = %q", snap.Schema)
	}
	if len(snap.Samples) != 1 || snap.Summary.Blocks != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(snap.Gaps) != 1 || snap.Gaps[0].Cause != "scheduler" {
		t.Fatalf("gaps = %+v", snap.Gaps)
	}
}

func TestTimelineEndpointAbsent(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil, nil))
	defer srv.Close()
	for _, path := range []string{"/telemetry/timeline", "/telemetry/dashboard"} {
		if code, _ := get(t, srv, path); code != http.StatusNotFound {
			t.Fatalf("%s without a timeline: %d, want 404", path, code)
		}
	}
}

func TestDashboardEndpoint(t *testing.T) {
	srv := httptest.NewServer(Handler(nil, nil, nil, NewTimeline(4)))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/telemetry/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/telemetry/dashboard: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	_, body := get(t, srv, "/telemetry/dashboard")
	page := string(body)
	for _, want := range []string{"<!doctype html", "/telemetry/timeline", "occ_execution"} {
		if !strings.Contains(page, want) {
			t.Fatalf("dashboard missing %q", want)
		}
	}
	if strings.Contains(page, "http://") || strings.Contains(page, "https://") {
		t.Fatal("dashboard references external resources; must be self-contained")
	}
}

func TestTelemetryIndex(t *testing.T) {
	reg := NewRegistry()
	srv := httptest.NewServer(Handler(reg, nil, nil, NewTimeline(4)))
	defer srv.Close()

	code, body := get(t, srv, "/telemetry/")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/: %d", code)
	}
	page := string(body)
	for _, want := range []string{"/metrics", "/telemetry/timeline", "/telemetry/dashboard", "/telemetry/postmortem/"} {
		if !strings.Contains(page, want) {
			t.Fatalf("index missing %q:\n%s", want, page)
		}
	}
	// No event log was attached: its endpoints are listed but marked off.
	if !strings.Contains(page, "not attached") {
		t.Fatal("index does not mark unavailable endpoints")
	}

	code, body = get(t, srv, "/telemetry/?format=json")
	if code != http.StatusOK {
		t.Fatalf("/telemetry/?format=json: %d", code)
	}
	var list []struct {
		Path      string `json:"path"`
		Available bool   `json:"available"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("index JSON: %v", err)
	}
	avail := map[string]bool{}
	for _, e := range list {
		avail[e.Path] = e.Available
	}
	if !avail["/metrics"] || !avail["/telemetry/timeline"] {
		t.Fatalf("availability map = %+v", avail)
	}
	if avail["/telemetry/postmortem/<n>"] {
		t.Fatal("postmortem should be unavailable without forensics")
	}

	// The index is exact-path: unknown /telemetry subpaths still 404.
	if code, _ := get(t, srv, "/telemetry/nonsense"); code != http.StatusNotFound {
		t.Fatalf("/telemetry/nonsense: %d, want 404", code)
	}
}
