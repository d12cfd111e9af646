package mem

import (
	"nephele/internal/obs"
)

// memMetrics caches the instruments the pool's hot paths feed when a
// registry is attached with SetMetrics. The hot paths load one atomic
// pointer and skip all instrumentation when it is nil, so a pool without
// metrics pays nothing.
type memMetrics struct {
	cowFaults        *obs.Counter // mem.cow_faults: resolved COW write faults
	lockWaitNS       *obs.Counter // mem.shard_lock_wait_ns: wall time batched operations spent acquiring the pool lock
	lockAcquisitions *obs.Counter // mem.shard_lock_acquisitions: pool-lock acquisitions by batched operations
	streamExtents    *obs.Counter // mem.stream.extents: chunks materialized by lazy-clone streamers
	unmappedFaults   *obs.Counter // mem.fault.unmapped: demand faults on lazy entries
}

// SetMetrics attaches a registry to the pool's opt-in hot-path
// instrumentation (pool lock wait, COW faults); nil detaches it and
// restores the uninstrumented fast path.
func (m *Memory) SetMetrics(r *obs.Registry) {
	if r == nil {
		m.metrics.Store(nil)
		return
	}
	m.metrics.Store(&memMetrics{
		cowFaults:        r.Counter("mem.cow_faults"),
		lockWaitNS:       r.Counter("mem.shard_lock_wait_ns"),
		lockAcquisitions: r.Counter("mem.shard_lock_acquisitions"),
		streamExtents:    r.Counter("mem.stream.extents"),
		unmappedFaults:   r.Counter("mem.fault.unmapped"),
	})
}
