// Package core is the public face of the Nephele reproduction: a Platform
// bundles the simulated hypervisor, Xenstore, Dom0 backends, toolstack and
// the xencloned daemon into one machine, and exposes the operations the
// paper's system offers — booting guests, saving/restoring them, and the
// headline capability: cloning a running unikernel the way fork() clones a
// process, with both stages accounted on a virtual clock.
package core

import (
	"fmt"

	"nephele/internal/cloned"
	"nephele/internal/devices"
	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// DomID re-exports the domain identifier type.
type DomID = hv.DomID

// Options configure a Platform.
type Options struct {
	// MemoryBytes is the hypervisor's guest-allocatable memory; 0 uses
	// the paper's 12 GiB.
	MemoryBytes uint64
	// Cloned tunes the xencloned daemon (ablations).
	Cloned cloned.Options
	// SkipNameCheck disables xl's name-uniqueness scan (the paper does
	// this for fair boot baselines).
	SkipNameCheck bool
}

const (
	// defaultMemoryBytes is the hypervisor pool of the paper's
	// microbenchmark machine: 12 GiB of its 16 GB.
	defaultMemoryBytes = 12 << 30
	// storeLogRotateEvery approximates oxenstored's log rotation period in
	// logged write requests; it produces the two Fig. 4 spikes per ~60k
	// writes.
	storeLogRotateEvery = 60000
	// vbdBaseImageBytes sizes the shared read-only base disk image the vbd
	// backend serves (the §5.3 device-type extension).
	vbdBaseImageBytes = 1 << 20
)

// Platform is one simulated physical machine running the Nephele stack.
type Platform struct {
	HV       *hv.Hypervisor
	Store    *xenstore.Store
	XL       *toolstack.XL
	Cloned   *cloned.Daemon
	Costs    *vclock.CostModel
	HostFS   *devices.HostFS
	Host     *netsim.Host
	Bond     *netsim.Bond
	Backends toolstack.Backends

	// router executes placed clone specs across a cluster (SetCloneRouter).
	router CloneRouter

	// trace is the sink attached with Observe; CloneOp falls back to it
	// when its context carries no trace of its own.
	trace *obs.Trace
}

// NewPlatform builds a machine.
func NewPlatform(opts Options) *Platform {
	memoryBytes := opts.MemoryBytes
	if memoryBytes == 0 {
		memoryBytes = defaultMemoryBytes
	}
	hyp := hv.New(memoryBytes)
	store := xenstore.New(storeLogRotateEvery)
	udev := devices.NewUdevQueue()
	hostFS := devices.NewHostFS()
	be := toolstack.Backends{
		Net:     devices.NewNetBackend(udev),
		Console: devices.NewConsoleBackend(),
		NineP:   devices.NewNinePBackend(hostFS),
		Vbd:     devices.NewVbdBackend(make([]byte, vbdBaseImageBytes)),
		Udev:    udev,
	}
	host := netsim.NewHost(netsim.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}, netsim.IP{10, 0, 0, 1})
	bond := netsim.NewBond("bond0")
	sw := &devices.Switch{Bond: bond, Uplink: host}

	xl := toolstack.New(hyp, store, be, sw)
	xl.SkipNameCheck = opts.SkipNameCheck
	daemon := cloned.New(hyp, store, xl, sw, opts.Cloned)

	return &Platform{
		HV:       hyp,
		Store:    store,
		XL:       xl,
		Cloned:   daemon,
		Costs:    vclock.DefaultCosts(),
		HostFS:   hostFS,
		Host:     host,
		Bond:     bond,
		Backends: be,
	}
}

// NewMeter returns a meter charging against this platform's cost table.
func (p *Platform) NewMeter() *vclock.Meter { return vclock.NewMeter(p.Costs) }

// SetFaults threads a fault-injection registry through every component of
// the clone pipeline — hypervisor first stage, Xenstore, toolstack
// adoption and every device kind's backend. Passing nil disarms injection
// everywhere.
func (p *Platform) SetFaults(r *fault.Registry) {
	p.HV.SetFaults(r)
	p.Store.SetFaults(r)
	p.XL.SetFaults(r)
	p.XL.Devices.SetFaults(r)
}

// Observe attaches a trace sink to the platform: every subsequent CloneOp
// whose context carries no trace of its own records its span tree into t,
// and the pool's opt-in hot-path instrumentation (COW faults, lazy-clone
// drains) feeds the platform metrics registry. Passing nil detaches the
// sink and restores the uninstrumented fast paths. Spans never charge the
// virtual clock, so observed and unobserved runs produce identical
// virtual-time results.
func (p *Platform) Observe(t *obs.Trace) {
	if t == nil {
		p.trace = nil
		p.HV.Memory.SetMetrics(nil)
		return
	}
	t.SetMetrics(p.HV.Metrics())
	p.HV.Memory.SetMetrics(p.HV.Metrics())
	p.trace = t
}

// Metrics returns the platform's metrics registry — the single registry
// the hypervisor, daemon and memory pool all feed.
func (p *Platform) Metrics() *obs.Registry { return p.HV.Metrics() }

// Boot creates a domain with xl (the regular instantiation path). It has
// no span tree of its own and threads the meter straight to the toolstack.
func (p *Platform) Boot(cfg toolstack.DomainConfig, meter *vclock.Meter) (*toolstack.Record, error) {
	return p.XL.Create(cfg, meter)
}

// NewImageStore creates a content-addressed snapshot cache over the
// platform pool, bounded to maxResidentMB (0 = unbounded), with its
// counters mirrored into the platform metrics registry.
func (p *Platform) NewImageStore(maxResidentMB int) *toolstack.ImageStore {
	st := toolstack.NewImageStore(p.HV.Memory, maxResidentMB)
	st.SetMetrics(p.Metrics())
	return st
}

// CloneResult describes one completed clone operation — a local clone, one
// host group of a remote clone, or a migration — so figures and harnesses
// report all three through one code path.
type CloneResult struct {
	// Children lists the domains the operation created, as IDs on the
	// platform they materialized on (a migration has exactly one).
	Children []DomID
	// Host is the cluster index of the platform the children landed on
	// (0 on a standalone machine).
	Host int
	// Total is the end-to-end operation latency on the virtual clock.
	Total vclock.Duration
	// TransferBytes counts bytes shipped across a host boundary: zero for
	// a local clone, the wire pages (after dedup) for a remote clone or a
	// migration.
	TransferBytes int64
	// Failed lists children whose second stage failed and were rolled
	// back and aborted (empty on full success).
	Failed []DomID
	// FirstStage is the hypervisor time (§6.1 reports ~1 ms at 4 MB).
	FirstStage vclock.Duration
	// SecondStage is the xencloned time, including device cloning and
	// userspace operations.
	SecondStage vclock.Duration
	// Stats is the hypervisor-side work breakdown (nil for children
	// materialized by a remote clone's restore path).
	Stats *hv.CloneOpStats
}

// WaitStreamed materializes every page a lazily cloned child still
// defers, charging ctx's meter and recording the stream's spans on its
// trace. Eager children return immediately.
func (p *Platform) WaitStreamed(ctx obs.OpCtx, id DomID) error {
	return p.HV.WaitStreamed(ctx.EnsureMeter(p.Costs), id)
}

// Destroy tears a domain down through the toolstack. Like Boot it has no
// span tree of its own and threads the meter straight through.
func (p *Platform) Destroy(id DomID, meter *vclock.Meter) error {
	return p.XL.Destroy(id, meter)
}

// MemoryReport summarizes machine memory for the density experiment
// (Fig. 5).
type MemoryReport struct {
	HypFreeBytes  uint64
	HypTotalBytes uint64
	SharedFrames  int
	Dom0UsedBytes uint64
	Instances     int
}

// Memory returns the current memory report.
func (p *Platform) Memory() MemoryReport {
	return MemoryReport{
		HypFreeBytes:  p.HV.FreeBytes(),
		HypTotalBytes: uint64(p.HV.Memory.TotalFrames()) * mem.PageSize,
		SharedFrames:  p.HV.Memory.SharedFrames(),
		Dom0UsedBytes: p.XL.Dom0MemUsed(),
		Instances:     p.XL.Count(),
	}
}

// GuestVif returns a booted guest's vif device.
func (p *Platform) GuestVif(id DomID, index int) (*devices.Vif, error) {
	return p.Backends.Net.Vif(uint32(id), index)
}

// String identifies the platform in logs.
func (p *Platform) String() string {
	return fmt.Sprintf("nephele-platform(domains=%d, free=%d MiB)",
		p.HV.DomainCount(), p.HV.FreeBytes()>>20)
}
