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

// VifConfig configures one paravirtualized network interface.
type VifConfig struct {
	IP netsim.IP
}

// NinePConfig configures one 9pfs mount.
type NinePConfig struct {
	Export string // Dom0 directory exported to the guest
	Tag    string // mount tag visible in the guest
}

// VbdConfig configures one block device over a shared base image
// registered with the platform's vbd backend.
type VbdConfig struct{}

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

// Switch abstracts where clone/guest vifs are plugged: a Linux bridge, a
// bond or an OVS group.
type Switch interface {
	// Attach plugs a vif in and wires its egress, charging the
	// userspace-operation cost.
	Attach(v *devices.Vif, meter *vclock.Meter)
	// Detach unplugs a vif.
	Detach(v *devices.Vif)
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
	if meter != nil {
		meter.Charge(meter.Costs().SwitchAttach, 1)
	}
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
	if meter != nil {
		meter.Charge(meter.Costs().SwitchAttach, 1)
	}
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
	if meter != nil {
		meter.Charge(meter.Costs().SwitchAttach, 1)
	}
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
	if meter != nil {
		meter.Charge(meter.Costs().ToolstackBoot, 1)
	}
	x.mu.Lock()
	if !x.SkipNameCheck {
		// Vanilla xl iterates all running VM names.
		if meter != nil {
			meter.Charge(meter.Costs().NameCheckPerVM, len(x.byName))
		}
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
		if err := x.HV.DomctlSetCloning(dom.ID, true, cfg.MaxClones); err != nil {
			return nil, err
		}
	}
	if err := x.introduce(dom.ID, cfg.Name, meter); err != nil {
		x.HV.DomainDestroy(obs.OpCtx{}, dom.ID)
		return nil, err
	}
	if err := x.createDevices(dom.ID, cfg, meter); err != nil {
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
	if meter != nil {
		meter.Charge(meter.Costs().Introduce, 1)
	}
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

// createDevices registers every configured device and finishes its setup.
func (x *XL) createDevices(id hv.DomID, cfg DomainConfig, meter *vclock.Meter) error {
	domid := uint32(id)
	if !cfg.NoConsole {
		if err := devices.WriteDevicePair(x.Store, domid, "console", 0, nil, meter); err != nil {
			return err
		}
		x.Backends.Console.Create(domid, meter)
	}
	for i, vc := range cfg.Vifs {
		extra := []devices.Entry{
			{Key: "mac", Value: netsim.MACForDomain(domid).String()},
			{Key: "ip", Value: vc.IP.String()},
		}
		if err := devices.WriteDevicePair(x.Store, domid, "vif", i, extra, meter); err != nil {
			return err
		}
		vif := x.Backends.Net.CreateVif(domid, i, vc.IP, meter)
		// On boot, xl itself consumes the udev event and performs the
		// userspace finalization.
		if _, ok := x.Backends.Udev.TryRecv(); ok && x.Net != nil {
			x.Net.Attach(vif, meter)
		}
	}
	for i, np := range cfg.NinePFS {
		extra := []devices.Entry{{Key: "tag", Value: np.Tag}, {Key: "export", Value: np.Export}}
		if err := devices.WriteDevicePair(x.Store, domid, "9pfs", i, extra, meter); err != nil {
			return err
		}
		// xl launches one backend process per guest that uses 9pfs.
		x.Backends.NineP.Launch(domid, np.Export, meter)
	}
	for i := range cfg.Vbds {
		if x.Backends.Vbd == nil {
			return fmt.Errorf("toolstack: vbd configured but no vbd backend registered")
		}
		if err := devices.WriteDevicePair(x.Store, domid, "vbd", i, nil, meter); err != nil {
			return err
		}
		x.Backends.Vbd.Create(domid, i, meter)
	}
	return nil
}

// Destroy tears a domain down and releases its devices and names.
func (x *XL) Destroy(id hv.DomID, meter *vclock.Meter) error {
	x.mu.Lock()
	rec, ok := x.byID[id]
	if !ok {
		x.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoDomain, id)
	}
	delete(x.byID, id)
	delete(x.byName, rec.Config.Name)
	delete(x.lastSave, id)
	x.dom0Mem -= Dom0MemPerInstanceBytes
	x.mu.Unlock()

	domid := uint32(id)
	for i := range rec.Config.Vifs {
		if v, err := x.Backends.Net.Vif(domid, i); err == nil && x.Net != nil {
			x.Net.Detach(v)
		}
		x.Backends.Net.RemoveVif(domid, i, meter)
		x.Backends.Udev.TryRecv() // consume the remove event
	}
	if !rec.Config.NoConsole {
		x.Backends.Console.Remove(domid)
	}
	for range rec.Config.NinePFS {
		x.Backends.NineP.Remove(domid)
	}
	for i := range rec.Config.Vbds {
		x.Backends.Vbd.Remove(domid, i)
	}
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

// ReleaseClone undoes an AdoptClone during rollback: the record and its
// name are dropped without touching devices or the hypervisor (the caller
// owns that part of the teardown). It reports whether the child was
// registered; releasing an unknown child is a no-op, so a rollback may run
// no matter how far adoption got.
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
