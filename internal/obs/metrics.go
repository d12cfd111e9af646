package obs

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Counter is a monotonically increasing metric. Like every instrument it
// is driven by the one goroutine that drives its platform, and its methods
// are nil-safe, so hot paths can cache a possibly-nil instrument pointer
// and call it unconditionally.
type Counter struct{ v int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v += n
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a metric that can move both ways.
type Gauge struct{ v int64 }

// Set stores the gauge value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v = n
	}
}

// Add moves the gauge by n (negative allowed).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v += n
	}
}

// Value reads the gauge (0 for nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// histBuckets is the bucket count of a Histogram: bucket i counts samples
// whose value has bit length i, i.e. values in [2^(i-1), 2^i), so the
// buckets are exponential with base 2 and cover the whole int64 range.
const histBuckets = 65

// Histogram records a distribution of non-negative int64 samples
// (virtual-time microseconds, extents per clone, ...) in power-of-two
// buckets. Nil-safe like Counter.
type Histogram struct {
	count   int64
	sum     int64
	buckets [histBuckets]int64
}

// Observe records one sample; negative samples clamp to zero.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count++
	h.sum += v
	h.buckets[bits.Len64(uint64(v))]++
}

// Count reports the number of samples (0 for nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum reports the sum of all samples (0 for nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Registry is a named collection of metrics. Instruments are created on
// first use and live for the registry's lifetime, so hot paths cache the
// pointers instead of re-resolving names. A nil *Registry is a valid
// disabled registry: lookups return nil instruments whose methods are
// no-ops.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// Insertion-order name lists; snapshots sort copies of these instead
	// of ranging over the maps, keeping every output deterministic.
	cnames, gnames, hnames []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil from a
// nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.cnames = append(r.cnames, name)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
		r.gnames = append(r.gnames, name)
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
		r.hnames = append(r.hnames, name)
	}
	return h
}

// HistBucket is one non-empty snapshot bucket: Count samples were < Lt.
type HistBucket struct {
	Lt    int64 `json:"lt"`
	Count int64 `json:"count"`
}

// HistSnapshot is the exported state of one histogram.
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Mean    float64      `json:"mean"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of every metric, JSON-marshalable (map
// keys marshal sorted, so the encoding is deterministic) and suitable for
// publishing via expvar: expvar.Publish("nephele", expvar.Func(reg.Var())).
type Snapshot struct {
	Counters   map[string]int64        `json:"counters,omitempty"`
	Gauges     map[string]int64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the current value of every instrument. Nil registries
// yield an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	if len(r.cnames) > 0 {
		s.Counters = make(map[string]int64, len(r.cnames))
		for _, n := range r.cnames {
			s.Counters[n] = r.counters[n].Value()
		}
	}
	if len(r.gnames) > 0 {
		s.Gauges = make(map[string]int64, len(r.gnames))
		for _, n := range r.gnames {
			s.Gauges[n] = r.gauges[n].Value()
		}
	}
	if len(r.hnames) > 0 {
		s.Histograms = make(map[string]HistSnapshot, len(r.hnames))
		for _, n := range r.hnames {
			h := r.hists[n]
			hs := HistSnapshot{Count: h.Count(), Sum: h.Sum()}
			if hs.Count > 0 {
				hs.Mean = float64(hs.Sum) / float64(hs.Count)
			}
			for i := 0; i < histBuckets; i++ {
				if c := h.buckets[i]; c > 0 {
					hs.Buckets = append(hs.Buckets, HistBucket{Lt: int64(1) << i, Count: c})
				}
			}
			s.Histograms[n] = hs
		}
	}
	return s
}

// MarshalJSON encodes the registry as its snapshot.
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// Var adapts the registry for expvar publication without obs importing
// net/http: wrap it as expvar.Func(reg.Var()).
func (r *Registry) Var() func() any {
	return func() any { return r.Snapshot() }
}

// Summary renders a deterministic text table of every metric, sorted by
// name within each instrument kind.
func (r *Registry) Summary() string {
	s := r.Snapshot()
	var b strings.Builder
	writeSorted := func(kind string, m map[string]int64) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(&b, "%-8s %-36s %14d\n", kind, n, m[n])
		}
	}
	writeSorted("counter", s.Counters)
	writeSorted("gauge", s.Gauges)
	hnames := make([]string, 0, len(s.Histograms))
	for n := range s.Histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.Histograms[n]
		fmt.Fprintf(&b, "%-8s %-36s count=%d sum=%d mean=%.1f\n", "hist", n, h.Count, h.Sum, h.Mean)
	}
	return b.String()
}
