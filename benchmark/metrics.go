package main

// metricDef is one row of the benchmark's metric catalogue. BENCHMARK.json is
// generated from these tables; a test keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression; per-layer
	// metrics have none.
	Bound float64
	// Exact marks a value that is a function of the op script alone: it
	// repeats bit-for-bit in every round of every pass for one seed, and the
	// benchmark asserts that it does.
	Exact bool
}

// Units name the clock: "us"/"ns"/"s" are host wall or CPU time, "virt_*" is
// the simulated clock (vclock.Meter), which is deterministic.
const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the host-side metrics of the untraced pass, the ones the
// driver bounds; all are readings as taken. The allocator and heap bounds are
// the issue's. The three timings are bounded at 25 %, not the issue's 15 %:
// the driver compares runs made a quarter of an hour apart on a shared box,
// and there ten runs on ten seeds spread by up to 8.3 % and their median
// moved by up to 10.6 % (README, "Measured noise"), which is within 15 % but
// not by the factor of three the contract asks a bound to keep.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "wall_ops_per_s", Unit: "ops/s", Better: higher, Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "host_allocs_per_op", Unit: "count", Better: lower, Bound: 0.02},
	{Name: "host_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.02},
	{Name: "host_live_mb", Unit: "MiB", Better: lower, Bound: 0.05},
}

// exactEndToEnd are the simulated-clock end-to-end metrics. They are what
// the paper reports, and they are exact: a bound in percent has no meaning
// for them (any drift is a behaviour change), and the driver refuses a time
// that reads the same on every run. They are therefore declared with the
// per-layer metrics in BENCHMARK.json, printed by every pass, and compared
// for equality between rounds and passes by the benchmark itself.
var exactEndToEnd = []metricDef{
	{Name: "virt_p50_ms", Unit: "virt_ms", Better: lower, Exact: true},
	{Name: "virt_tail_ms", Unit: "virt_ms", Better: lower, Exact: true},
	{Name: "virt_ops_per_s", Unit: "ops/virt_s", Better: higher, Exact: true},
	{Name: "sim_kb_per_instance", Unit: "KiB", Better: lower, Exact: true},
	{Name: "fail_ratio", Unit: "ratio", Better: lower, Exact: true},
}

// perLayer is the traced pass's catalogue, one block per module. A metric a
// workload cannot produce (cluster.* on a single host) reads 0 there.
var perLayer = []metricDef{
	// core
	{Name: "core.clone.wall_us", Unit: "us", Better: lower},
	{Name: "core.clone.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "core.clone.wall_p99_us", Unit: "us", Better: lower},
	{Name: "core.boot.wall_us", Unit: "us", Better: lower},
	{Name: "core.boot.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "core.destroy.wall_us", Unit: "us", Better: lower},
	{Name: "core.destroy.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "core.glue_self_us", Unit: "us", Better: lower},
	// hv
	{Name: "hv.clone.wall_us", Unit: "us", Better: lower},
	{Name: "hv.clone.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "hv.clone_reset.wall_us", Unit: "us", Better: lower},
	{Name: "hv.clone_reset.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "hv.domain_create.wall_us", Unit: "us", Better: lower},
	{Name: "hv.private_copies_per_child", Unit: "count", Better: lower, Exact: true},
	{Name: "hv.request_failures", Unit: "count", Better: lower, Exact: true},
	{Name: "hv.batch_shard_conflicts", Unit: "count", Better: lower, Exact: true},
	// mem
	{Name: "mem.space_clone.wall_us", Unit: "us", Better: lower},
	{Name: "mem.space_clone.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "mem.space_clone_lazy.wall_us", Unit: "us", Better: lower},
	{Name: "mem.space_release.wall_us", Unit: "us", Better: lower},
	{Name: "mem.cow_fault.wall_ns", Unit: "ns", Better: lower},
	{Name: "mem.cow_fault.virt_ns", Unit: "virt_ns", Better: lower, Exact: true},
	{Name: "mem.wait_streamed.wall_us", Unit: "us", Better: lower},
	{Name: "mem.cow_faults_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "mem.shared_pages_per_clone", Unit: "count", Better: higher, Exact: true},
	{Name: "mem.extents_per_clone", Unit: "count", Better: lower, Exact: true},
	{Name: "mem.stream_extents_per_op", Unit: "count", Better: lower},
	{Name: "mem.unmapped_faults_per_op", Unit: "count", Better: lower},
	{Name: "mem.shard_lock_wait_ns_per_op", Unit: "ns", Better: lower},
	{Name: "mem.shard_lock_acq_per_op", Unit: "count", Better: lower},
	{Name: "mem.shared_frames_peak", Unit: "count", Better: higher, Exact: true},
	// evtchn, gnttab
	{Name: "evtchn.cloned_per_child", Unit: "count", Better: lower, Exact: true},
	{Name: "gnttab.cloned_per_child", Unit: "count", Better: lower, Exact: true},
	// xenstore
	{Name: "xenstore.requests_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "xenstore.writes_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "xenstore.clone_reqs_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "xenstore.log_rotations", Unit: "count", Better: lower, Exact: true},
	{Name: "xenstore.nodes_peak", Unit: "count", Better: lower, Exact: true},
	{Name: "xenstore.leaked_nodes_per_destroy", Unit: "count", Better: lower, Exact: true},
	{Name: "xenstore.xs_clone.wall_us", Unit: "us", Better: lower},
	{Name: "xenstore.xs_clone.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "xenstore.write.wall_ns", Unit: "ns", Better: lower},
	{Name: "xenstore.directory.wall_ns", Unit: "ns", Better: lower},
	// cloned
	{Name: "cloned.serve.wall_us", Unit: "us", Better: lower},
	{Name: "cloned.serve.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "cloned.second_stage_mean_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "cloned.retries", Unit: "count", Better: lower, Exact: true},
	{Name: "cloned.failures", Unit: "count", Better: lower, Exact: true},
	{Name: "cloned.rollbacks", Unit: "count", Better: lower, Exact: true},
	{Name: "cloned.aborts", Unit: "count", Better: lower, Exact: true},
	// devices
	{Name: "devices.vif_clone.wall_ns", Unit: "ns", Better: lower},
	{Name: "devices.vif_clone.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "devices.console_clone.wall_ns", Unit: "ns", Better: lower},
	{Name: "devices.vifs_peak", Unit: "count", Better: lower, Exact: true},
	// netsim
	{Name: "netsim.bond_slaves_peak", Unit: "count", Better: lower, Exact: true},
	{Name: "netsim.link_pages_sent_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "netsim.link_pages_deduped_per_op", Unit: "count", Better: higher, Exact: true},
	{Name: "netsim.link_plan.wall_us", Unit: "us", Better: lower},
	// toolstack
	{Name: "toolstack.create.wall_us", Unit: "us", Better: lower},
	{Name: "toolstack.create.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "toolstack.destroy.wall_us", Unit: "us", Better: lower},
	{Name: "toolstack.destroy.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "toolstack.save.wall_us", Unit: "us", Better: lower},
	{Name: "toolstack.save.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "toolstack.restore.wall_us", Unit: "us", Better: lower},
	{Name: "toolstack.restore.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "toolstack.restore_cached.wall_us", Unit: "us", Better: lower},
	{Name: "toolstack.restore_cached.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "toolstack.image_hash.wall_us", Unit: "us", Better: lower},
	{Name: "toolstack.imagestore_insert.wall_us", Unit: "us", Better: lower},
	{Name: "toolstack.imagestore_hit_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "toolstack.imagestore_evictions", Unit: "count", Better: lower, Exact: true},
	{Name: "toolstack.imagestore_adopted_frames_per_op", Unit: "count", Better: higher, Exact: true},
	{Name: "toolstack.imagestore_resident_pages", Unit: "count", Better: lower, Exact: true},
	// cluster
	{Name: "cluster.remote_clone.wall_us", Unit: "us", Better: lower},
	{Name: "cluster.remote_clone.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "cluster.snapshot.wall_us", Unit: "us", Better: lower},
	{Name: "cluster.snapshot.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "cluster.xfer.wall_us", Unit: "us", Better: lower},
	{Name: "cluster.xfer.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "cluster.materialize.wall_us", Unit: "us", Better: lower},
	{Name: "cluster.materialize.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "cluster.xfer_pages_per_op", Unit: "count", Better: lower, Exact: true},
	{Name: "cluster.dedup_ratio", Unit: "ratio", Better: higher, Exact: true},
	{Name: "cluster.materialize_warm_ratio", Unit: "ratio", Better: higher, Exact: true},
	// guest, fuzz
	{Name: "guest.boot.wall_us", Unit: "us", Better: lower},
	{Name: "guest.boot.virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "fuzz.iterate.wall_ns", Unit: "ns", Better: lower},
	{Name: "fuzz.dirty_pages_per_iter", Unit: "count", Better: lower, Exact: true},
	{Name: "fuzz.reset_virt_us", Unit: "virt_us", Better: lower, Exact: true},
	{Name: "fuzz.corpus_size", Unit: "count", Better: higher, Exact: true},
	// vclock
	{Name: "vclock.virt_us_per_wall_us", Unit: "ratio", Better: higher},
	{Name: "vclock.ref_err_pct", Unit: "%", Better: lower},
	// obs
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "obs.spans_per_op", Unit: "count", Better: lower, Exact: true},
}

// tracedCatalogue is everything a -trace 1 run prints: the exact end-to-end
// metrics first, then the layers.
func tracedCatalogue() []metricDef {
	return append(append([]metricDef(nil), exactEndToEnd...), perLayer...)
}

// defOf finds a metric by name in either catalogue.
func defOf(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, exactEndToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
