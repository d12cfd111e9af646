package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"nephele/internal/vclock"
)

func TestDisabledSinkZeroAlloc(t *testing.T) {
	meter := vclock.NewMeter(nil)
	allocs := testing.AllocsPerRun(200, func() {
		ctx := Ctx(meter)
		ctx, sp := ctx.StartSpan("phase")
		_, sp2 := ctx.StartSpan("sub")
		sp2.End()
		sp.End()
		(*Counter)(nil).Inc()
		(*Histogram)(nil).Observe(7)
		(*Registry)(nil).Counter("x").Add(3)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %v per op, want 0", allocs)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := NewTrace()
	m := vclock.NewMeter(nil)
	ctx := Ctx(m).WithTrace(tr)

	ctx, root := ctx.StartSpan("root")
	m.Add(10 * time.Microsecond)
	cctx, child := ctx.StartSpan("child")
	m.Add(5 * time.Microsecond)
	_, leaf := cctx.StartSpan("leaf")
	leaf.End()
	child.End()
	m.Add(1 * time.Microsecond)
	root.End()

	recs := tr.Spans()
	if len(recs) != 3 {
		t.Fatalf("got %d spans, want 3", len(recs))
	}
	want := []struct {
		name   string
		parent int32
		start  vclock.Duration
		dur    vclock.Duration
	}{
		{"root", 0, 0, 16 * time.Microsecond},
		{"child", 1, 10 * time.Microsecond, 5 * time.Microsecond},
		{"leaf", 2, 15 * time.Microsecond, 0},
	}
	for i, w := range want {
		r := recs[i]
		if r.Name != w.name || r.Parent != w.parent || r.StartV != w.start || r.DurV() != w.dur {
			t.Errorf("span %d = {%s parent=%d start=%v dur=%v}, want %+v", i, r.Name, r.Parent, r.StartV, r.DurV(), w)
		}
	}
}

func TestRenderAndChrome(t *testing.T) {
	tr := NewTrace()
	m := vclock.NewMeter(nil)
	ctx := Ctx(m).WithTrace(tr)
	ctx, root := ctx.StartSpan("op")
	m.Add(3 * time.Microsecond)
	_, sp := ctx.StartSpan("phase")
	m.Add(2 * time.Microsecond)
	sp.End()
	root.End()

	rendered := tr.Render()
	wantLines := []string{"op ", "..phase "}
	for _, w := range wantLines {
		if !strings.Contains(rendered, w) {
			t.Errorf("Render missing %q:\n%s", w, rendered)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int32   `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(decoded.TraceEvents))
	}
	if decoded.TraceEvents[0].Ph != "X" || decoded.TraceEvents[1].Tid != decoded.TraceEvents[0].Tid {
		t.Errorf("events malformed: %+v", decoded.TraceEvents)
	}
	if decoded.TraceEvents[1].Ts != 3 || decoded.TraceEvents[1].Dur != 2 {
		t.Errorf("phase event ts/dur = %v/%v, want 3/2 µs", decoded.TraceEvents[1].Ts, decoded.TraceEvents[1].Dur)
	}

	if sum := tr.Summary(); !strings.Contains(sum, "phase") || !strings.Contains(sum, "op") {
		t.Errorf("Summary missing span names:\n%s", sum)
	}
}

func TestRegistrySnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Inc()
	r.Gauge("depth").Set(5)
	r.Histogram("lat.us").Observe(100)
	r.Histogram("lat.us").Observe(300)

	j1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r)
	if !bytes.Equal(j1, j2) {
		t.Errorf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
	s := r.Snapshot()
	if s.Counters["a.count"] != 1 || s.Counters["b.count"] != 2 || s.Gauges["depth"] != 5 {
		t.Errorf("snapshot values wrong: %+v", s)
	}
	h := s.Histograms["lat.us"]
	if h.Count != 2 || h.Sum != 400 || h.Mean != 200 {
		t.Errorf("histogram snapshot wrong: %+v", h)
	}
	if got := r.Var()().(Snapshot); got.Counters["a.count"] != 1 {
		t.Errorf("Var() snapshot wrong: %+v", got)
	}
	if sum := r.Summary(); !strings.Contains(sum, "a.count") || !strings.Contains(sum, "lat.us") {
		t.Errorf("Summary missing instruments:\n%s", sum)
	}
}

func TestEnsureMeter(t *testing.T) {
	ctx := Ctx(nil).EnsureMeter(nil)
	if ctx.Meter() == nil {
		t.Fatal("EnsureMeter left a nil meter")
	}
}
