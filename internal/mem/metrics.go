package mem

import (
	"nephele/internal/obs"
)

// memMetrics caches the instruments the pool's hot paths feed when a
// registry is attached with SetMetrics. The hot paths load one pointer
// and skip all instrumentation when it is nil, so a pool without metrics
// pays nothing.
type memMetrics struct {
	cowFaults      *obs.Counter // mem.cow_faults: resolved COW write faults
	streamExtents  *obs.Counter // mem.stream.extents: chunks materialized by lazy-clone drains
	unmappedFaults *obs.Counter // mem.fault.unmapped: demand faults on lazy entries
}

// SetMetrics attaches a registry to the pool's opt-in hot-path
// instrumentation (COW faults, lazy-clone drains and demand faults); nil
// detaches it and restores the uninstrumented fast path. Its callers
// (Platform.Observe, the benchmark's platform setup) run it before any
// operation starts.
func (m *Memory) SetMetrics(r *obs.Registry) {
	if r == nil {
		m.metrics = nil
		return
	}
	m.metrics = &memMetrics{
		cowFaults:      r.Counter("mem.cow_faults"),
		streamExtents:  r.Counter("mem.stream.extents"),
		unmappedFaults: r.Counter("mem.fault.unmapped"),
	}
}
