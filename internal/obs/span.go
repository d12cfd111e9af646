package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"nephele/internal/vclock"
)

// SpanRecord is one completed (or still-open) span of a trace. IDs are
// positional: span i of a trace has ID i+1, and a span's parent always has
// a smaller ID (parents start before their children), which is what lets
// Absorb renumber a sub-trace with a single offset.
type SpanRecord struct {
	ID     int32
	Parent int32 // 0 = top level
	Name   string
	// StartV/EndV are virtual timestamps read from the operation's meter;
	// they are the deterministic part of the record. EndV is -1 while the
	// span is open.
	StartV vclock.Duration
	EndV   vclock.Duration
	// WallNS is the host wall-clock duration of the span. It is recorded
	// for profiling the simulator itself and never participates in span
	// ordering or golden comparisons.
	WallNS int64
}

// DurV returns the span's virtual duration (0 for open spans).
func (r SpanRecord) DurV() vclock.Duration {
	if r.EndV < r.StartV {
		return 0
	}
	return r.EndV - r.StartV
}

// Trace is an append-only collection of spans for one observed run. It is
// safe for concurrent use, but determinism of the record order is the
// caller's contract: direct StartSpan calls must happen on sequential code
// paths, and parallel sections record onto Detach sub-traces merged back
// with Absorb in a deterministic order.
type Trace struct {
	mu   sync.Mutex
	recs []SpanRecord
	// metrics, when set, receives a "span.<name>.us" histogram observation
	// for every span that ends.
	metrics *Registry
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// SetMetrics wires a registry to receive per-span-name virtual-duration
// histograms ("span.<name>.us") as spans end; nil detaches it.
func (t *Trace) SetMetrics(r *Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.metrics = r
}

// Metrics returns the registry wired with SetMetrics (nil when none is).
// Exporters use it to dump the metrics that accumulated alongside the
// trace without holding a separate reference to the observed platform.
func (t *Trace) Metrics() *Registry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.metrics
}

// Span is the handle returned by OpCtx.StartSpan. The zero value is a
// disabled span whose End is a no-op, so callers never branch on whether
// tracing is on.
type Span struct {
	t    *Trace
	id   int32
	m    *vclock.Meter
	wall time.Time
}

func (t *Trace) start(name string, parent int32, m *vclock.Meter) Span {
	v := m.Elapsed()
	t.mu.Lock()
	id := int32(len(t.recs) + 1)
	t.recs = append(t.recs, SpanRecord{ID: id, Parent: parent, Name: name, StartV: v, EndV: -1})
	t.mu.Unlock()
	return Span{t: t, id: id, m: m, wall: time.Now()} //nephele:nondeterministic-ok — wall time is recorded for profiling only, never used for ordering
}

// End closes the span at the meter's current virtual time.
//
//nephele:noalloc
func (s Span) End() {
	if s.t == nil {
		return
	}
	v := s.m.Elapsed()
	wall := time.Since(s.wall) //nephele:nondeterministic-ok — wall time is recorded for profiling only, never used for ordering
	s.t.mu.Lock()
	rec := &s.t.recs[s.id-1]
	rec.EndV = v
	rec.WallNS = int64(wall)
	reg, name, dur := s.t.metrics, rec.Name, rec.DurV()
	s.t.mu.Unlock()
	if reg != nil {
		// The metrics branch only runs with a registry attached — a
		// profiling configuration, not the meter-only warm path.
		reg.Histogram("span." + name + ".us").Observe(int64(dur / vclock.Duration(time.Microsecond))) //nephele:hotalloc-ok name concat is on the registry-attached profiling branch only
	}
}

// Absorb merges a Detach sub-trace into t: sub's spans are renumbered past
// t's existing records, top-level spans are re-parented under parent, and
// every virtual timestamp is shifted by offset — the parent meter's
// elapsed time at the merge point, exactly the shift Meter.Add performs on
// the numbers. Called once per sub-trace, in the same deterministic order
// the meters merge; a nil t or sub is a no-op. The sub-trace is drained
// and must not be used afterwards.
func (t *Trace) Absorb(sub *Trace, parent int32, offset vclock.Duration) {
	if t == nil || sub == nil {
		return
	}
	sub.mu.Lock()
	recs := sub.recs
	sub.recs = nil
	sub.mu.Unlock()
	if len(recs) == 0 {
		return
	}
	t.mu.Lock()
	base := int32(len(t.recs))
	for _, r := range recs {
		r.ID += base
		if r.Parent > 0 {
			r.Parent += base
		} else {
			r.Parent = parent
		}
		r.StartV += offset
		if r.EndV >= 0 {
			r.EndV += offset
		}
		t.recs = append(t.recs, r)
	}
	reg := t.metrics
	t.mu.Unlock()
	if reg != nil {
		// Sub-traces carry no registry of their own; absorbed spans feed
		// the per-phase histograms here, at the same deterministic merge
		// point their timestamps shift.
		for _, r := range recs {
			if r.EndV >= 0 {
				reg.Histogram("span." + r.Name + ".us").Observe(int64(r.DurV() / vclock.Duration(time.Microsecond)))
			}
		}
	}
}

// Spans returns a copy of the recorded spans in append order.
func (t *Trace) Spans() []SpanRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.recs))
	copy(out, t.recs)
	return out
}

// Len reports the number of recorded spans.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// depths computes each span's nesting depth; parents always precede their
// children in the slice, so one pass suffices.
func depths(recs []SpanRecord) []int {
	d := make([]int, len(recs))
	for i, r := range recs {
		if r.Parent > 0 {
			d[i] = d[r.Parent-1] + 1
		}
	}
	return d
}

// Render formats the trace as a deterministic text table for golden tests:
// one line per span in record order, the name prefixed with two dots per
// nesting level, followed by the virtual start and duration in
// microseconds. Wall time is deliberately omitted.
func (t *Trace) Render() string {
	recs := t.Spans()
	dep := depths(recs)
	var b strings.Builder
	for i, r := range recs {
		name := strings.Repeat("..", dep[i]) + r.Name
		fmt.Fprintf(&b, "%-36s %14.3f %12.3f\n",
			name, us(r.StartV), us(r.DurV()))
	}
	return b.String()
}

func us(d vclock.Duration) float64 { return float64(d) / 1e3 }

// chromeEvent is one Chrome-trace-event ("X" complete event). The format
// is loadable by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int32             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome emits the trace in Chrome trace-event JSON. Timestamps are
// the spans' virtual microseconds; each top-level span and its subtree get
// their own tid lane, since every operation's virtual clock starts at its
// own zero. Wall time rides along as an argument.
func (t *Trace) WriteChrome(w io.Writer) error {
	recs := t.Spans()
	// Lane = root ancestor's ID; parents precede children, so roots are
	// resolved in one pass.
	lane := make([]int32, len(recs))
	for i, r := range recs {
		if r.Parent > 0 {
			lane[i] = lane[r.Parent-1]
		} else {
			lane[i] = r.ID
		}
	}
	events := make([]chromeEvent, 0, len(recs))
	for i, r := range recs {
		events = append(events, chromeEvent{
			Name: r.Name,
			Ph:   "X",
			Ts:   us(r.StartV),
			Dur:  us(r.DurV()),
			Pid:  1,
			Tid:  lane[i],
			Args: map[string]string{"wall": time.Duration(r.WallNS).String()},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// Summary aggregates the trace per span name into a text table: count,
// total and mean virtual time, and total wall time — the quick "where do
// the microseconds go" view.
func (t *Trace) Summary() string {
	recs := t.Spans()
	type agg struct {
		count  int
		totalV vclock.Duration
		wallNS int64
	}
	byName := make(map[string]*agg, 16)
	var names []string
	for _, r := range recs {
		a := byName[r.Name]
		if a == nil {
			a = &agg{}
			byName[r.Name] = a
			names = append(names, r.Name)
		}
		a.count++
		a.totalV += r.DurV()
		a.wallNS += r.WallNS
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %8s %14s %14s %14s\n", "span", "count", "total(virt)", "mean(virt)", "total(wall)")
	for _, n := range names {
		a := byName[n]
		mean := a.totalV / vclock.Duration(a.count)
		fmt.Fprintf(&b, "%-24s %8d %14s %14s %14s\n",
			n, a.count, time.Duration(a.totalV), time.Duration(mean), time.Duration(a.wallNS))
	}
	return b.String()
}
