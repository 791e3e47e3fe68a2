package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestCheckedInConflictsReportValidates pins the dmvcc/postmortem/v1 schema:
// the checked-in BENCH_conflicts.json must keep parsing into the post-mortem
// types and satisfying the report's invariants, whatever produces those
// post-mortems.
func TestCheckedInConflictsReportValidates(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_conflicts.json")
	if err != nil {
		t.Fatal(err)
	}
	var rep ConflictsReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
}
