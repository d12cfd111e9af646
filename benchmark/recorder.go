package main

import (
	"encoding/json"
	"io"
	"strings"
	"time"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// span is one interval the benchmark recorded around one of its own calls
// into a layer. The name's first dotted element is the layer (module) the
// call entered: "hv.clone" is a call into internal/hv.
type span struct {
	Name   string
	Parent int32 // 1-based index of the enclosing span, 0 at top level
	Op     int32 // ordinal of the counted op the span belongs to
	// W0/W1 are host wall nanoseconds since the round started; V0/V1 are
	// positions on the script's cumulative virtual timeline.
	W0, W1 int64
	V0, V1 vclock.Duration
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// recorder keeps a round's spans in memory; nothing is written until the run
// ends. A nil recorder is the untraced pass: begin and end are no-ops.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int32
}

func newRecorder(t0 time.Time) *recorder {
	return &recorder{t0: t0, spans: make([]span, 0, 1<<14)}
}

// begin opens a span under the innermost open one. base is the script's
// virtual time before the current op; the op's meter supplies the rest.
func (r *recorder) begin(name string, op int, base vclock.Duration, m *vclock.Meter) int32 {
	if r == nil {
		return 0
	}
	var parent int32
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: int32(op),
		V0: base + m.Elapsed(), W0: int64(time.Since(r.t0))})
	id := int32(len(r.spans))
	r.open = append(r.open, id)
	return id
}

// end closes the innermost span, which must be id.
func (r *recorder) end(id int32, base vclock.Duration, m *vclock.Meter) {
	if r == nil {
		return
	}
	w := int64(time.Since(r.t0))
	s := &r.spans[id-1]
	s.W1, s.V1 = w, base+m.Elapsed()
	r.open = r.open[:len(r.open)-1]
}

// adopt copies the spans the program itself recorded into tr (handed to it
// through the public OpCtx.WithTrace) under the innermost open span, renamed
// to layer-qualified names; spans with no entry in names are dropped. The
// program records wall durations but no wall start, so adopted spans are
// laid end to end from their parent's start.
func (r *recorder) adopt(tr *obs.Trace, names map[string]string, op int, base vclock.Duration) {
	if r == nil || tr == nil {
		return
	}
	parent := r.open[len(r.open)-1]
	cursor := r.spans[parent-1].W0
	for _, rec := range tr.Spans() {
		name, ok := names[rec.Name]
		if !ok || rec.EndV < rec.StartV {
			continue
		}
		r.spans = append(r.spans, span{Name: name, Parent: parent, Op: int32(op),
			V0: base + rec.StartV, V1: base + rec.EndV, W0: cursor, W1: cursor + rec.WallNS})
		cursor += rec.WallNS
	}
}

// spanStats aggregates one span name over a round.
type spanStats struct {
	wallNS []int64
	virtNS []int64
}

// byName groups the round's spans by name.
func (r *recorder) byName() map[string]*spanStats {
	out := make(map[string]*spanStats)
	for _, s := range r.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.wallNS = append(st.wallNS, s.W1-s.W0)
		st.virtNS = append(st.virtNS, int64(s.V1-s.V0))
	}
	return out
}

// selfTimes charges every span's duration minus its children's to the
// span's layer, on both clocks. The virtual column sums to the script's
// total virtual time when every charged microsecond fell inside some span.
func (r *recorder) selfTimes() (virt, wall map[string]int64) {
	childV := make([]int64, len(r.spans))
	childW := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent > 0 {
			childV[s.Parent-1] += int64(s.V1 - s.V0)
			childW[s.Parent-1] += s.W1 - s.W0
		}
	}
	virt, wall = make(map[string]int64), make(map[string]int64)
	for i, s := range r.spans {
		l := s.layer()
		virt[l] += int64(s.V1-s.V0) - childV[i]
		wall[l] += s.W1 - s.W0 - childW[i]
	}
	return virt, wall
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// maxChromeSpans caps the spans written per workload: a fuzz round records
// 100 000 of them and the viewer needs only the pattern.
const maxChromeSpans = 20000

// writeChrome emits one traced round per workload as Chrome trace-event
// JSON on the wall clock, virtual positions riding along as arguments.
func writeChrome(w io.Writer, names []string, rounds map[string]*recorder) error {
	var events []chromeEvent
	for pid, name := range names {
		r := rounds[name]
		if r == nil {
			continue
		}
		spans := r.spans
		if len(spans) > maxChromeSpans {
			spans = spans[:maxChromeSpans]
		}
		for _, s := range spans {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: s.layer(), Ph: "X",
				Ts: float64(s.W0) / 1e3, Dur: float64(s.W1-s.W0) / 1e3,
				Pid: pid + 1, Tid: 1,
				Args: map[string]any{
					"workload":      name,
					"op":            s.Op,
					"parent":        s.Parent,
					"virt_start_us": float64(s.V0) / 1e3,
					"virt_dur_us":   float64(s.V1-s.V0) / 1e3,
				},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}
