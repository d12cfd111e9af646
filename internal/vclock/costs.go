package vclock

import "time"

// CostModel holds the unit costs charged by the simulated platform. Each
// mechanism call charges count x unit for the work it actually performed,
// so the shapes of the reproduced curves come from mechanism counts; only
// the absolute scale comes from this table.
//
// The defaults are calibrated once against the endpoints reported in the
// paper (Xeon E5-1620 v2, Xen 4.16, Alpine Dom0 on a ramdisk) and are not
// touched by individual experiments.
type CostModel struct {
	// Hypervisor-level work.

	Hypercall       Duration // entering/leaving a hypercall
	DomainCreate    Duration // allocating and wiring struct domain, vCPUs
	DomainDestroy   Duration // tearing a domain down
	VCPUClone       Duration // replicating one vCPU register state
	PageAlloc       Duration // allocating one machine frame to a domain
	PageCopy        Duration // copying one 4 KiB frame
	PageShare       Duration // transferring one frame's ownership to dom_cow
	PageUnshare     Duration // COW fault: copy + ownership transfer back
	PTEntryClone    Duration // duplicating one page-table mapping (per page)
	P2MEntryClone   Duration // rebuilding one p2m entry for a child
	GrantEntryClone Duration // cloning one grant-table entry
	EvtchnClone     Duration // cloning one event channel
	VIRQDeliver     Duration // raising a virtual interrupt
	CloneRingPush   Duration // filling one clone-notification ring entry
	CloneResetPage  Duration // clone_reset: restoring one dirty page

	// Xenstore.

	StoreRequest Duration // serving one Xenstore request (read/write/...)
	StorePerNode Duration // per-node surcharge: request cost grows with the store
	StoreLogRot  Duration // rotating the access log (the Fig. 4 spikes)

	// Toolstack / Dom0 userspace.

	ToolstackBoot    Duration // xl create fixed path (config parse, libxl calls)
	NameCheckPerVM   Duration // vanilla xl name-uniqueness scan, per running VM
	DeviceNegotiate  Duration // one Xenbus front/back negotiation (boot only)
	BackendCreate    Duration // backend driver internal state for one device
	CloneDeviceState Duration // backend clone-device state (negotiation skipped)
	UdevEvent        Duration // generating + handling one udev event
	SwitchAttach     Duration // enslaving a vif into the bond
	QMPRoundTrip     Duration // one QMP request to a device-model process
	NinePFidClone    Duration // duplicating one 9pfs fid table entry
	ImagePageSave    Duration // writing one page to a saved image (ramdisk)
	ImagePageRestore Duration // reading one page back from a saved image
	XenclonedWake    Duration // xencloned daemon wakeup + dispatch
	Introduce        Duration // introducing a new domain to xenstored
	CloneRetryBase   Duration // base backoff before retrying a transient second-stage fault (doubles per attempt)

	// Cluster interconnect (cross-host clone transfers over the bonded
	// inter-host links). Per-page cost is per link slave: a bonded link of
	// width w moves its extents over w slaves in parallel, so the wire
	// time of a transfer is XferPage x the busiest slave's page count.

	XferSetup Duration // per-transfer session setup (peer handshake, stream open)
	XferChunk Duration // per-extent header + content-hash dedup exchange
	XferPage  Duration // shipping one 4 KiB page over one link slave

	// Guest-side work.

	GuestBootKernel Duration // unikernel early boot up to app main (Mini-OS)
	GuestNetReady   Duration // bringing up the guest network stack
	GuestUDPNotify  Duration // sending the readiness datagram

	// Linux process / container baselines.

	ProcForkBase     Duration // fork() fixed cost (task struct, fd table)
	ProcPTEntryCopy  Duration // copying one page-table mapping on fork
	ProcMarkCOWEntry Duration // first fork only: write-protecting one mapping
	ProcExecBase     Duration // execve after fork
	ContainerStart   Duration // container runtime cold start (image unpack...)
	ContainerReady   Duration // readiness probe delay for containers
}

// DefaultCosts returns the calibrated cost table. See DESIGN.md §6 for the
// calibration methodology and EXPERIMENTS.md for paper-vs-measured numbers.
func DefaultCosts() *CostModel {
	return &CostModel{
		Hypercall:       2 * time.Microsecond,
		DomainCreate:    700 * time.Microsecond,
		DomainDestroy:   120 * time.Microsecond,
		VCPUClone:       6 * time.Microsecond,
		PageAlloc:       450 * time.Nanosecond,
		PageCopy:        3 * time.Microsecond,
		PageShare:       60 * time.Nanosecond,
		PageUnshare:     3500 * time.Nanosecond,
		PTEntryClone:    45 * time.Nanosecond,
		P2MEntryClone:   30 * time.Nanosecond,
		GrantEntryClone: 90 * time.Nanosecond,
		EvtchnClone:     350 * time.Nanosecond,
		VIRQDeliver:     4 * time.Microsecond,
		CloneRingPush:   1 * time.Microsecond,
		CloneResetPage:  40 * time.Microsecond,

		StoreRequest: 250 * time.Microsecond,
		StorePerNode: 35 * time.Nanosecond,
		StoreLogRot:  700 * time.Millisecond,

		ToolstackBoot:    65 * time.Millisecond,
		NameCheckPerVM:   45 * time.Microsecond,
		DeviceNegotiate:  18 * time.Millisecond,
		BackendCreate:    8 * time.Millisecond,
		CloneDeviceState: 3 * time.Millisecond,
		UdevEvent:        2500 * time.Microsecond,
		SwitchAttach:     8 * time.Millisecond,
		QMPRoundTrip:     800 * time.Microsecond,
		NinePFidClone:    2 * time.Microsecond,
		ImagePageSave:    9 * time.Microsecond,
		ImagePageRestore: 19 * time.Microsecond,
		XenclonedWake:    400 * time.Microsecond,
		Introduce:        650 * time.Microsecond,
		CloneRetryBase:   500 * time.Microsecond,

		XferSetup: 150 * time.Microsecond,
		XferChunk: 8 * time.Microsecond,
		XferPage:  1500 * time.Nanosecond,

		GuestBootKernel: 12 * time.Millisecond,
		GuestNetReady:   2 * time.Millisecond,
		GuestUDPNotify:  120 * time.Microsecond,

		ProcForkBase:     70 * time.Microsecond,
		ProcPTEntryCopy:  62 * time.Nanosecond,
		ProcMarkCOWEntry: 55 * time.Nanosecond,
		ProcExecBase:     350 * time.Microsecond,
		ContainerStart:   2200 * time.Millisecond,
		ContainerReady:   5500 * time.Millisecond,
	}
}

// Meter accumulates virtual time charged by mechanism calls. A Meter is
// owned by one logical operation (a boot, a clone, a fuzzing iteration) and
// is not safe for concurrent use; concurrent operations each use their own.
//
// A nil *Meter is the disabled meter: Charge and Add do nothing, Elapsed
// reads zero and Costs returns the shared default table, so code that
// charges or reads time never tests its meter for nil.
type Meter struct {
	costs   *CostModel
	elapsed Duration
}

// NewMeter returns a meter charging against the given cost table.
// A nil costs table uses DefaultCosts.
func NewMeter(costs *CostModel) *Meter {
	if costs == nil {
		costs = DefaultCosts()
	}
	return &Meter{costs: costs}
}

// nilCosts is the table a nil meter's Costs returns; nothing writes to it.
var nilCosts = DefaultCosts()

// Costs exposes the cost table the meter charges against.
func (m *Meter) Costs() *CostModel {
	if m == nil {
		return nilCosts
	}
	return m.costs
}

// Charge adds n units of the given unit cost.
func (m *Meter) Charge(unit Duration, n int) {
	if n < 0 {
		panic("vclock: negative charge count")
	}
	if m == nil {
		return
	}
	m.elapsed += unit * Duration(n)
}

// Add adds a raw duration (for costs computed by the caller).
func (m *Meter) Add(d Duration) {
	if d < 0 {
		panic("vclock: negative charge")
	}
	if m == nil {
		return
	}
	m.elapsed += d
}

// Elapsed reports the virtual time accumulated so far.
func (m *Meter) Elapsed() Duration {
	if m == nil {
		return 0
	}
	return m.elapsed
}

// Reset zeroes the accumulated time, keeping the cost table.
func (m *Meter) Reset() { m.elapsed = 0 }

// Lap returns the time accumulated since the previous Lap (or since the
// meter was created) without resetting the total.
func (m *Meter) Lap(prev Duration) Duration { return m.elapsed - prev }
