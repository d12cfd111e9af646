// Package toolstack simulates xl/libxl: configuration files, regular
// domain instantiation (the Fig. 4 boot baseline), save/restore (the
// second baseline) and teardown. The toolstack resides in Dom0, issues
// hypervisor requests for vCPUs and memory, registers devices in Xenstore,
// drives the Xenbus negotiation and performs the userspace operations that
// finish device multiplexing (§3).
package toolstack

import (
	"errors"
	"fmt"
	"strconv"
	"sync"

	"nephele/internal/devices"
	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// Errors.
var (
	ErrNameTaken = errors.New("toolstack: domain name already in use")
	ErrNoDomain  = errors.New("toolstack: no such domain")
)

// The per-device configuration types and the switch interface belong to
// the device-kind table.
type (
	VifConfig   = devices.VifConfig
	NinePConfig = devices.NinePConfig
	VbdConfig   = devices.VbdConfig
	Switch      = devices.Switch
)

// DomainConfig is the xl configuration file of one guest.
type DomainConfig struct {
	Name     string
	MemoryMB int
	VCPUs    int
	// MaxClones is the non-zero clone budget required before a guest may
	// be cloned (§5.1); zero forbids cloning.
	MaxClones int
	Vifs      []VifConfig
	NinePFS   []NinePConfig
	Vbds      []VbdConfig
	// NoConsole suppresses the console device (all paper guests have
	// one, so the zero value includes it).
	NoConsole bool
}

// Pages returns the guest memory size in frames, honouring the 4 MiB
// minimum Xen imposes on any domain (§6.2).
func (c DomainConfig) Pages() int {
	mb := c.MemoryMB
	if mb < 4 {
		mb = 4
	}
	return mb * 256 // 256 frames per MiB
}

// deviceConfig is the device half of the configuration, as the device-kind
// table reads it.
func (c DomainConfig) deviceConfig() devices.Config {
	return devices.Config{NoConsole: c.NoConsole, Vifs: c.Vifs, NinePFS: c.NinePFS, Vbds: c.Vbds}
}

// BridgeSwitch attaches vifs to a learning bridge (the vanilla Xen
// topology for the boot baseline).
type BridgeSwitch struct {
	Bridge *netsim.Bridge
}

// Attach implements Switch.
func (s *BridgeSwitch) Attach(v *devices.Vif, meter *vclock.Meter) {
	s.Bridge.Attach(v)
	v.SetEgress(func(p netsim.Packet) { s.Bridge.Forward(v, p) })
	meter.Charge(meter.Costs().SwitchAttach, 1)
}

// Detach implements Switch.
func (s *BridgeSwitch) Detach(v *devices.Vif) { s.Bridge.Detach(v) }

// BondSwitch enslaves vifs into a bond whose uplink is the host endpoint
// (the clone topology: identical MAC+IP slaves, balance-xor selection).
type BondSwitch struct {
	Bond   *netsim.Bond
	Uplink netsim.Endpoint
}

// Attach implements Switch.
func (s *BondSwitch) Attach(v *devices.Vif, meter *vclock.Meter) {
	s.Bond.Enslave(v)
	v.SetEgress(func(p netsim.Packet) { s.Uplink.Deliver(p) })
	meter.Charge(meter.Costs().SwitchAttach, 1)
}

// Detach implements Switch.
func (s *BondSwitch) Detach(v *devices.Vif) { s.Bond.Release(v) }

// OVSSwitch adds vifs as buckets of an OVS select group.
type OVSSwitch struct {
	Group  *netsim.OVSGroup
	Uplink netsim.Endpoint
}

// Attach implements Switch.
func (s *OVSSwitch) Attach(v *devices.Vif, meter *vclock.Meter) {
	s.Group.AddBucket(v)
	v.SetEgress(func(p netsim.Packet) { s.Uplink.Deliver(p) })
	meter.Charge(meter.Costs().SwitchAttach, 1)
}

// Detach implements Switch.
func (s *OVSSwitch) Detach(v *devices.Vif) { s.Group.RemoveBucket(v) }

// Backends bundles the Dom0 backend drivers the toolstack talks to.
type Backends struct {
	Net     *devices.NetBackend
	Console *devices.ConsoleBackend
	NineP   *devices.NinePBackend
	Vbd     *devices.VbdBackend
	Udev    *devices.UdevQueue
}

// Record tracks a running domain in the toolstack registry.
type Record struct {
	ID     hv.DomID
	Config DomainConfig
}

// Dom0MemPerInstanceBytes models the Dom0 memory consumed per guest
// instance (Xenstore entries, backend driver data); Fig. 5 shows Dom0
// free decreasing at the same rate for booting and cloning.
const Dom0MemPerInstanceBytes = 350 << 10

// XL is the toolstack front door.
type XL struct {
	HV       *hv.Hypervisor
	Store    *xenstore.Store
	Backends Backends
	// Devices is the device-kind table over Backends, built once here;
	// xencloned and the platform's fault wiring walk the same table.
	Devices devices.Table
	// Net selects where vifs are attached.
	Net Switch
	// SkipNameCheck disables the vanilla uniqueness scan whose cost is
	// superlinear in the number of instances (§6.1; the paper disables
	// it for the baseline since generated names are unique).
	SkipNameCheck bool

	mu      sync.Mutex
	byName  map[string]hv.DomID
	byID    map[hv.DomID]*Record
	dom0Mem uint64 // bytes of Dom0 memory consumed by instance state
	faults  *fault.Registry
	// lastSave is each live domain's most recent Save, which the next one
	// inherits unchanged runs' hashes from (Image.ensureHashed).
	lastSave map[hv.DomID]*Image
}

// New creates a toolstack over the given platform components.
func New(hyp *hv.Hypervisor, store *xenstore.Store, be Backends, net Switch) *XL {
	return &XL{
		HV:       hyp,
		Store:    store,
		Backends: be,
		Devices:  devices.NewTable(be.Console, be.Net, be.NineP, be.Vbd),
		Net:      net,
		byName:   make(map[string]hv.DomID),
		byID:     make(map[hv.DomID]*Record),
		lastSave: make(map[hv.DomID]*Image),
	}
}

// SetFaults installs a fault-injection registry on the clone-adoption path
// (tests); a nil registry disables injection.
func (x *XL) SetFaults(r *fault.Registry) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.faults = r
}

// Dom0MemUsed reports the Dom0 memory consumed by per-instance state.
func (x *XL) Dom0MemUsed() uint64 {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.dom0Mem
}

// Count reports the number of toolstack-managed domains.
func (x *XL) Count() int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return len(x.byID)
}

// Lookup finds a record by name.
func (x *XL) Lookup(name string) (*Record, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	id, ok := x.byName[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoDomain, name)
	}
	return x.byID[id], nil
}

// Record returns the record of a domain ID.
func (x *XL) Record(id hv.DomID) (*Record, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	r, ok := x.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	return r, nil
}

// Create boots a domain from config: the Fig. 4 baseline path. It covers
// the toolstack fixed work, the optional name-uniqueness scan, hypervisor
// domain creation, Xenstore introduction, device registration with full
// Xenbus negotiation, backend creation and the userspace device
// finalization. Guest kernel boot time is charged by the guest runtime.
func (x *XL) Create(cfg DomainConfig, meter *vclock.Meter) (*Record, error) {
	meter.Charge(meter.Costs().ToolstackBoot, 1)
	x.mu.Lock()
	if !x.SkipNameCheck {
		// Vanilla xl iterates all running VM names.
		meter.Charge(meter.Costs().NameCheckPerVM, len(x.byName))
	}
	if _, taken := x.byName[cfg.Name]; taken {
		x.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNameTaken, cfg.Name)
	}
	x.mu.Unlock()

	dom, err := x.HV.DomainCreate(obs.Ctx(meter), cfg.Pages(), max1(cfg.VCPUs))
	if err != nil {
		return nil, err
	}
	if cfg.MaxClones > 0 {
		err = x.HV.DomctlSetCloning(dom.ID, true, cfg.MaxClones)
	}
	if err == nil {
		err = x.introduce(dom.ID, cfg.Name, meter)
	}
	if err == nil {
		err = x.createDevices(dom.ID, cfg, meter)
	}
	if err != nil {
		// Nothing is registered yet, so there is no record or name to
		// drop: unwind the devices and entries built so far, uncharged.
		x.Devices.Teardown(uint32(dom.ID), x.Net, nil)
		x.Devices.RemoveEntries(x.Store, uint32(dom.ID), nil)
		x.HV.DomainDestroy(obs.OpCtx{}, dom.ID)
		return nil, err
	}

	rec := &Record{ID: dom.ID, Config: cfg}
	x.mu.Lock()
	x.byName[cfg.Name] = dom.ID
	x.byID[dom.ID] = rec
	x.dom0Mem += Dom0MemPerInstanceBytes
	x.mu.Unlock()
	return rec, nil
}

func max1(n int) int {
	if n < 1 {
		return 1
	}
	return n
}

// introduce registers a new domain with xenstored.
func (x *XL) introduce(id hv.DomID, name string, meter *vclock.Meter) error {
	meter.Charge(meter.Costs().Introduce, 1)
	base := fmt.Sprintf("/local/domain/%d", id)
	// A fixed order: the first write creates the domain's directory, and
	// every later request's StorePerNode charge counts it.
	for _, w := range []devices.Entry{
		{Key: base + "/name", Value: name},
		{Key: base + "/domid", Value: strconv.FormatUint(uint64(id), 10)},
		{Key: base + "/memory", Value: "static-max"},
	} {
		if err := x.Store.Write(w.Key, w.Value, meter); err != nil {
			return err
		}
	}
	return nil
}

// createDevices registers every configured device and finishes its setup,
// kind by kind in table order.
func (x *XL) createDevices(id hv.DomID, cfg DomainConfig, meter *vclock.Meter) error {
	dc := cfg.deviceConfig()
	for k := range x.Devices {
		if err := x.Devices[k].Create(x.Store, dc, uint32(id), x.Net, meter); err != nil {
			return err
		}
	}
	return nil
}

// Destroy tears a domain down and releases its devices and names.
func (x *XL) Destroy(id hv.DomID, meter *vclock.Meter) error {
	if !x.ReleaseClone(id) {
		return fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	x.Devices.Teardown(uint32(id), x.Net, meter)
	x.Store.Remove(fmt.Sprintf("/local/domain/%d", id), meter)
	return x.HV.DomainDestroy(obs.Ctx(meter), id)
}

// AdoptClone registers a clone created by xencloned in the toolstack
// registry (xencloned generates the name itself, guaranteeing uniqueness,
// so no scan happens — §6.1).
func (x *XL) AdoptClone(parent, child hv.DomID) (*Record, error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.faults.Check(fault.PointToolstackAdopt); err != nil {
		return nil, err
	}
	prec, ok := x.byID[parent]
	if !ok {
		return nil, fmt.Errorf("%w: parent %d", ErrNoDomain, parent)
	}
	cfg := prec.Config
	cfg.Name = fmt.Sprintf("%s-clone-%d", prec.Config.Name, child)
	rec := &Record{ID: child, Config: cfg}
	x.byName[cfg.Name] = child
	x.byID[child] = rec
	x.dom0Mem += Dom0MemPerInstanceBytes
	return rec, nil
}

// ReleaseClone drops a domain's record and name without touching devices
// or the hypervisor (the caller owns that part of the teardown): the first
// step of Destroy, and the undo of AdoptClone during rollback. It reports
// whether the domain was registered; releasing an unknown one is a no-op,
// so a rollback may run no matter how far adoption got.
func (x *XL) ReleaseClone(child hv.DomID) bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	rec, ok := x.byID[child]
	if !ok {
		return false
	}
	delete(x.byID, child)
	delete(x.byName, rec.Config.Name)
	delete(x.lastSave, child)
	x.dom0Mem -= Dom0MemPerInstanceBytes
	return true
}
