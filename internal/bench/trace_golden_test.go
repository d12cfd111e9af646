package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"nephele/internal/obs"
)

// TestGoldenFig4Trace pins the span tree the clone pipeline emits for four
// instances of the Fig. 4 xs_clone curve: names, nesting, counts and
// virtual timestamps.
// Span emission is deterministic under virtual time (spans never charge
// the meter; parallel sections are absorbed in admission order), so the
// rendered tree is byte-identical run to run, which the test checks by
// tracing the curve twice. Regenerate with -update only when a change
// deliberately alters the pipeline's phase structure.
func TestGoldenFig4Trace(t *testing.T) {
	var renders [2]string
	for i := range renders {
		tr := obs.NewTrace()
		if _, err := fig4CloneCurve("clone", false, tr, 4, 2); err != nil {
			t.Fatal(err)
		}
		renders[i] = tr.Render()
	}
	checkRepeated(t, renders[0], renders[1])
	checkGolden(t, "golden-fig4-trace.txt", renders[0])
}

// TestFig4TraceShape asserts the structural invariants the Chrome-trace
// export relies on, independent of golden data: every clone records one
// clone-op root with the first stage (clone-request) and the
// parent-paused wait nested beneath it, the second stage runs inside
// parent-paused, and the export is valid Chrome-trace JSON.
func TestFig4TraceShape(t *testing.T) {
	tr := obs.NewTrace()
	const instances = 3
	if _, err := fig4CloneCurve("clone", false, tr, instances, 1); err != nil {
		t.Fatal(err)
	}

	spans := tr.Spans()
	byID := make(map[int32]obs.SpanRecord, len(spans))
	count := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		count[s.Name]++
		if s.EndV < s.StartV {
			t.Errorf("span %d (%s) not ended or negative: start %v end %v", s.ID, s.Name, s.StartV, s.EndV)
		}
	}
	for _, name := range []string{"clone-op", "clone-request", "parent-paused", "second-stage", "clone-child"} {
		if count[name] != instances {
			t.Errorf("span %q recorded %d times, want %d", name, count[name], instances)
		}
	}
	parentName := func(s obs.SpanRecord) string {
		if s.Parent == 0 {
			return ""
		}
		return byID[s.Parent].Name
	}
	for _, s := range spans {
		switch s.Name {
		case "clone-op":
			if s.Parent != 0 {
				t.Errorf("clone-op %d should be a root span, parent is %q", s.ID, parentName(s))
			}
		case "clone-request", "parent-paused":
			if parentName(s) != "clone-op" {
				t.Errorf("%s %d nested under %q, want clone-op", s.Name, s.ID, parentName(s))
			}
		case "second-stage":
			if parentName(s) != "parent-paused" {
				t.Errorf("second-stage %d nested under %q, want parent-paused", s.ID, parentName(s))
			}
		case "clone-child":
			if parentName(s) != "clone-request" {
				t.Errorf("clone-child %d nested under %q, want clone-request", s.ID, parentName(s))
			}
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteChrome emitted invalid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != len(spans) {
		t.Errorf("Chrome trace has %d events, want %d", len(doc.TraceEvents), len(spans))
	}
	seen := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want complete events (X)", ev.Name, ev.Ph)
		}
		if strings.Contains(ev.Name, "parent-paused") {
			seen = true
		}
	}
	if !seen {
		t.Error("Chrome trace has no parent-paused event")
	}
}
