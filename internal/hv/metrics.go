package hv

import (
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// hvMetrics caches the instrument pointers the first-stage clone path
// feeds, so the hot path pays atomic adds instead of name lookups. The
// registry itself is shared with the rest of the platform (xencloned's
// failure counters live in it too), making it the single source of truth
// benchmark/ and the fault-matrix tests read.
type hvMetrics struct {
	reg *obs.Registry

	cloneRequests *obs.Counter // hv.clone.requests: admitted CLONEOP clone requests
	cloneFailures *obs.Counter // hv.clone.request_failures: first-stage failures
	cloneChildren *obs.Counter // hv.clone.children: children successfully built
	sharedPages   *obs.Counter // hv.clone.shared_pages
	privateCopies *obs.Counter // hv.clone.private_copies
	privateFresh  *obs.Counter // hv.clone.private_fresh
	grantsCloned  *obs.Counter // hv.clone.grants
	evtchnCloned  *obs.Counter // hv.clone.evtchn
	completions   *obs.Counter // hv.clone.completions: clone_completion subcommands
	aborts        *obs.Counter // hv.clone.aborts: clone_abort subcommands
	cowPages      *obs.Counter // hv.clone.cow_pages: pages privatized via clone_cow
	resetCalls    *obs.Counter // hv.clone.resets: clone_reset subcommands
	resetPages    *obs.Counter // hv.clone.reset_pages: pages restored by clone_reset

	firstStageUS *obs.Histogram // hv.clone.first_stage_us: per-request first-stage virtual time
	extents      *obs.Histogram // hv.clone.extents: extents walked per child clone
}

func newHVMetrics() *hvMetrics {
	reg := obs.NewRegistry()
	return &hvMetrics{
		reg:           reg,
		cloneRequests: reg.Counter("hv.clone.requests"),
		cloneFailures: reg.Counter("hv.clone.request_failures"),
		cloneChildren: reg.Counter("hv.clone.children"),
		sharedPages:   reg.Counter("hv.clone.shared_pages"),
		privateCopies: reg.Counter("hv.clone.private_copies"),
		privateFresh:  reg.Counter("hv.clone.private_fresh"),
		grantsCloned:  reg.Counter("hv.clone.grants"),
		evtchnCloned:  reg.Counter("hv.clone.evtchn"),
		completions:   reg.Counter("hv.clone.completions"),
		aborts:        reg.Counter("hv.clone.aborts"),
		cowPages:      reg.Counter("hv.clone.cow_pages"),
		resetCalls:    reg.Counter("hv.clone.resets"),
		resetPages:    reg.Counter("hv.clone.reset_pages"),
		firstStageUS:  reg.Histogram("hv.clone.first_stage_us"),
		extents:       reg.Histogram("hv.clone.extents"),
	}
}

// recordClone feeds one successful request's CloneOpStats into the
// registry, keeping the ad-hoc stats struct and the metrics in lockstep.
func (m *hvMetrics) recordClone(stats *CloneOpStats, children int) {
	m.cloneRequests.Inc()
	m.cloneChildren.Add(int64(children))
	m.sharedPages.Add(int64(stats.Memory.SharedPages))
	m.privateCopies.Add(int64(stats.Memory.PrivateCopies))
	m.privateFresh.Add(int64(stats.Memory.PrivateFresh))
	m.grantsCloned.Add(int64(stats.Grants))
	m.evtchnCloned.Add(int64(stats.Events.Cloned))
	m.firstStageUS.Observe(usOf(stats.FirstStage))
}

// Metrics exposes the hypervisor's metrics registry. It always exists;
// components that want to publish into the same registry (xencloned, the
// memory pool's opt-in lock metrics) share this one.
func (h *Hypervisor) Metrics() *obs.Registry { return h.met.reg }

// usOf converts a virtual duration to whole microseconds for histograms.
func usOf(d vclock.Duration) int64 { return int64(d / 1000) }
