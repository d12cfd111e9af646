package main

import (
	"nephele/internal/core"
	"nephele/internal/toolstack"
)

// rawCounts reads the public counters of every layer, summed over the
// round's platforms: the shared metrics registry (hv, cloned, and mem's
// opt-in instruments) and the Xenstore's own Stats.
func rawCounts(hosts []*core.Platform) map[string]int64 {
	c := make(map[string]int64)
	for _, p := range hosts {
		snap := p.Metrics().Snapshot()
		for name, v := range snap.Counters {
			c[name] += v
		}
		for name, h := range snap.Histograms {
			c[name+"#n"] += h.Count
			c[name+"#sum"] += h.Sum
		}
		st := p.Store.Stats()
		c["xenstore.requests"] += int64(st.Requests)
		c["xenstore.writes"] += int64(st.Writes)
		c["xenstore.clone_reqs"] += int64(st.CloneReqs)
		c["xenstore.log_rotations"] += int64(st.LogRotations)
	}
	return c
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// layerCounts turns the counter movement since baseline into the count
// metrics of the catalogue. "_per_op" divides by the round's primary ops,
// "_per_child"/"_per_clone" by the children the hypervisor built.
func (e *env) layerCounts() {
	if len(e.hosts) == 0 {
		return
	}
	now := rawCounts(e.hosts)
	d := func(name string) int64 { return now[name] - e.baseCnt[name] }
	pri := int64(len(e.primary))
	kids := d("hv.clone.children")

	e.layer["hv.private_copies_per_child"] = ratio(d("hv.clone.private_copies"), kids)
	e.layer["hv.request_failures"] = float64(d("hv.clone.request_failures"))
	e.layer["hv.batch_shard_conflicts"] = float64(d("hv.batch.shard_conflicts"))
	e.layer["evtchn.cloned_per_child"] = ratio(d("hv.clone.evtchn"), kids)
	e.layer["gnttab.cloned_per_child"] = ratio(d("hv.clone.grants"), kids)
	e.layer["mem.shared_pages_per_clone"] = ratio(d("hv.clone.shared_pages"), kids)
	e.layer["mem.extents_per_clone"] = ratio(d("hv.clone.extents#sum"), d("hv.clone.extents#n"))

	e.layer["xenstore.requests_per_op"] = ratio(d("xenstore.requests"), pri)
	e.layer["xenstore.writes_per_op"] = ratio(d("xenstore.writes"), pri)
	e.layer["xenstore.clone_reqs_per_op"] = ratio(d("xenstore.clone_reqs"), pri)
	e.layer["xenstore.log_rotations"] = float64(d("xenstore.log_rotations"))

	e.layer["cloned.second_stage_mean_us"] = ratio(d("cloned.second_stage_us#sum"), d("cloned.second_stage_us#n"))
	e.layer["cloned.retries"] = float64(d("cloned.retries"))
	e.layer["cloned.failures"] = float64(d("cloned.failures"))
	e.layer["cloned.rollbacks"] = float64(d("cloned.rollbacks"))
	e.layer["cloned.aborts"] = float64(d("cloned.aborts"))

	if e.instrumented() {
		e.layer["mem.cow_faults_per_op"] = ratio(d("mem.cow_faults"), pri)
		e.layer["mem.stream_extents_per_op"] = ratio(d("mem.stream.extents"), pri)
		e.layer["mem.unmapped_faults_per_op"] = ratio(d("mem.fault.unmapped"), pri)
		e.layer["mem.shard_lock_wait_ns_per_op"] = ratio(d("mem.shard_lock_wait_ns"), pri)
		e.layer["mem.shard_lock_acq_per_op"] = ratio(d("mem.shard_lock_acquisitions"), pri)
	}
}

// storeCounts reports the snapshot caches' counters, summed over stores.
func (e *env) storeCounts(stores ...*toolstack.ImageStore) {
	var s toolstack.ImageStoreStats
	for _, st := range stores {
		x := st.Stats()
		s.Hits += x.Hits
		s.Misses += x.Misses
		s.Evictions += x.Evictions
		s.AdoptedFrames += x.AdoptedFrames
		s.ResidentPages += x.ResidentPages
	}
	e.layer["toolstack.imagestore_hit_ratio"] = ratio(s.Hits, s.Hits+s.Misses)
	e.layer["toolstack.imagestore_evictions"] = float64(s.Evictions)
	e.layer["toolstack.imagestore_adopted_frames_per_op"] = ratio(s.AdoptedFrames, int64(len(e.primary)))
	e.layer["toolstack.imagestore_resident_pages"] = float64(s.ResidentPages)
}
