// Package core is the public face of the Nephele reproduction: a Platform
// bundles the simulated hypervisor, Xenstore, Dom0 backends, toolstack and
// the xencloned daemon into one machine, and exposes the operations the
// paper's system offers — booting guests, saving/restoring them, and the
// headline capability: cloning a running unikernel the way fork() clones a
// process, with both stages accounted on a virtual clock.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

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

// SwitchKind selects the clone-interface aggregation (§5.2.1).
type SwitchKind int

const (
	// SwitchBond aggregates clone vifs with a Linux bond in balance-xor
	// mode and the layer3+4 hash policy (the paper's default).
	SwitchBond SwitchKind = iota
	// SwitchOVS uses an Open vSwitch select group.
	SwitchOVS
	// SwitchBridge uses a plain learning bridge (boot baseline
	// topology; clones with duplicate MACs do not need it).
	SwitchBridge
)

// Options configure a Platform.
type Options struct {
	// HV sizes the hypervisor; zero value uses hv.DefaultConfig.
	HV hv.Config
	// Switch selects the network aggregation for guest vifs.
	Switch SwitchKind
	// StoreLogRotateEvery controls the Xenstore access-log rotation
	// period in write requests; 0 uses the realistic default.
	StoreLogRotateEvery int
	// Cloned tunes the xencloned daemon (ablations).
	Cloned cloned.Options
	// SkipNameCheck disables xl's name-uniqueness scan (the paper does
	// this for fair boot baselines).
	SkipNameCheck bool
	// VbdBaseImage is the shared read-only base disk image served by the
	// vbd backend (the §5.3 device-type extension); nil creates an empty
	// 1 MiB image.
	VbdBaseImage []byte
}

// storeLogRotateDefault approximates oxenstored's log rotation period in
// logged write requests; it produces the two Fig. 4 spikes per ~60k writes.
const storeLogRotateDefault = 60000

// Platform is one simulated physical machine running the Nephele stack.
type Platform struct {
	HV       *hv.Hypervisor
	Store    *xenstore.Store
	XL       *toolstack.XL
	Cloned   *cloned.Daemon
	Clock    *vclock.Clock
	Costs    *vclock.CostModel
	HostFS   *devices.HostFS
	Host     *netsim.Host
	Bond     *netsim.Bond
	OVS      *netsim.OVSGroup
	Bridge   *netsim.Bridge
	Backends toolstack.Backends

	mu sync.Mutex
	// router executes placed clone specs across a cluster (SetCloneRouter).
	router CloneRouter

	// trace is the sink attached with Observe; CloneOp falls back to it
	// when its context carries no trace of its own.
	trace atomic.Pointer[obs.Trace]
}

// NewPlatform builds a machine.
func NewPlatform(opts Options) *Platform {
	cfg := opts.HV
	if cfg.MemoryBytes == 0 {
		cfg = hv.DefaultConfig()
	}
	hyp := hv.New(cfg)
	rot := opts.StoreLogRotateEvery
	if rot == 0 {
		rot = storeLogRotateDefault
	}
	store := xenstore.New(rot)
	udev := devices.NewUdevQueue()
	hostFS := devices.NewHostFS()
	baseImage := opts.VbdBaseImage
	if baseImage == nil {
		baseImage = make([]byte, 1<<20)
	}
	be := toolstack.Backends{
		Net:     devices.NewNetBackend(udev),
		Console: devices.NewConsoleBackend(),
		NineP:   devices.NewNinePBackend(hostFS),
		Vbd:     devices.NewVbdBackend(baseImage),
		Udev:    udev,
	}
	host := netsim.NewHost(netsim.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}, netsim.IP{10, 0, 0, 1})
	bond := netsim.NewBond("bond0")
	ovs := netsim.NewOVSGroup("group0")
	bridge := netsim.NewBridge("xenbr0")

	var sw toolstack.Switch
	switch opts.Switch {
	case SwitchOVS:
		sw = &toolstack.OVSSwitch{Group: ovs, Uplink: host}
	case SwitchBridge:
		sw = &toolstack.BridgeSwitch{Bridge: bridge}
	default:
		sw = &toolstack.BondSwitch{Bond: bond, Uplink: host}
	}

	xl := toolstack.New(hyp, store, be, sw)
	xl.SkipNameCheck = opts.SkipNameCheck
	daemon := cloned.New(hyp, store, xl, sw, opts.Cloned)

	return &Platform{
		HV:       hyp,
		Store:    store,
		XL:       xl,
		Cloned:   daemon,
		Clock:    &vclock.Clock{},
		Costs:    vclock.DefaultCosts(),
		HostFS:   hostFS,
		Host:     host,
		Bond:     bond,
		OVS:      ovs,
		Bridge:   bridge,
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
// and the pool's opt-in hot-path instrumentation (shard lock wait, COW
// faults) feeds the platform metrics registry. Passing nil detaches the
// sink and restores the uninstrumented fast paths. Spans never charge the
// virtual clock, so observed and unobserved runs produce identical
// virtual-time results.
func (p *Platform) Observe(t *obs.Trace) {
	if t == nil {
		p.trace.Store(nil)
		p.HV.Memory.SetMetrics(nil)
		return
	}
	t.SetMetrics(p.HV.Metrics())
	p.HV.Memory.SetMetrics(p.HV.Metrics())
	p.trace.Store(t)
}

// Metrics returns the platform's metrics registry — the single registry
// the hypervisor, daemon and memory pool all feed.
func (p *Platform) Metrics() *obs.Registry { return p.HV.Metrics() }

// Boot creates a domain with xl (the regular instantiation path). It has
// no span tree of its own and threads the meter straight to the toolstack.
//
//nephele:opctx-ok signature pinned by benchmark/ call sites until the layer-span PR converts XL.Create
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
// host group of a remote clone, or a migration. The embedded OpResult
// carries the fields they share (children, total latency, transfer bytes).
type CloneResult struct {
	OpResult
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
	// Err is set on entries of a multi-spec round whose spec failed
	// first-stage admission (always nil from a single-spec CloneOp, which
	// returns the error directly).
	Err error
}

// WaitStreamed blocks until a lazily cloned child's background streamer
// has materialized every deferred page, merging the streamer's virtual
// time and spans onto ctx. Eager children return immediately.
func (p *Platform) WaitStreamed(ctx obs.OpCtx, id DomID) error {
	return p.HV.WaitStreamed(ctx.EnsureMeter(p.Costs), id)
}

// Destroy tears a domain down through the toolstack. Like Boot it has no
// span tree of its own and threads the meter straight through.
//
//nephele:opctx-ok signature pinned by benchmark/ call sites until the layer-span PR converts XL.Destroy
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
