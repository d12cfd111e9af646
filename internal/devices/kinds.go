package devices

import (
	"fmt"

	"nephele/internal/fault"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/xenstore"
)

// Switch is where guest and clone vifs are plugged: a bond whose uplink is
// the host endpoint (the clone topology of §5.2.1: identical MAC+IP
// slaves, balance-xor selection). A nil *Switch plugs nothing.
type Switch struct {
	Bond   *netsim.Bond
	Uplink netsim.Endpoint
}

// Attach enslaves v and wires its egress to the uplink, charging the
// userspace-operation cost.
func (s *Switch) Attach(ctx obs.OpCtx, v *Vif) {
	meter := ctx.Meter()
	s.Bond.Enslave(v)
	v.SetEgress(func(p netsim.Packet) { s.Uplink.Deliver(p) })
	meter.Charge(meter.Costs().SwitchAttach, 1)
}

// Detach releases v from the bond.
func (s *Switch) Detach(v *Vif) { s.Bond.Release(v) }

// VifConfig configures one paravirtualized network interface.
type VifConfig struct {
	IP netsim.IP
}

// NinePConfig configures one 9pfs mount.
type NinePConfig struct {
	Export string // Dom0 directory exported to the guest
	Tag    string // mount tag visible in the guest
}

// VbdConfig configures one block device over the base image registered
// with the platform's vbd backend.
type VbdConfig struct{}

// Config is the device half of a guest configuration: what the table's
// boot path is asked to create.
type Config struct {
	Vifs    []VifConfig
	NinePFS []NinePConfig
	Vbds    []VbdConfig
}

// Kind is one row of the device-kind table: everything the toolstack and
// xencloned know about a device type. Adding a device type (§5.3) is one
// row in NewTable plus the backend behind it.
type Kind struct {
	// Dir names the kind's directory under a guest's device/ subtree and
	// under Dom0's backend/ subtree.
	Dir string
	// CloneOp is the xs_clone rewrite policy of the kind's entries.
	CloneOp xenstore.CloneOp
	// Network marks the kinds cloned.Options.SkipNetworkDevices skips.
	Network bool
	// Clone is the backend half of cloning one device (the caller has
	// cloned the kind's Xenstore directories): the child's device comes up
	// connected, without negotiation, and finalized.
	Clone func(ctx obs.OpCtx, parent, child uint32, index int, sw *Switch) error

	// present is false when the platform registered no backend of the
	// kind: configuring such a device fails, and no guest can own one.
	present bool
	// wanted counts the devices of the kind a configuration asks for, and
	// entries returns the kind-specific Xenstore entries of one of them
	// (nil func: none), by value so that no list of them is allocated.
	wanted  func(cfg Config) int
	entries func(cfg Config, domid uint32, index int) extraEntries
	// create and remove are what the two mean to the backend for one
	// device, userspace finalization included. A kind with one device per
	// guest ignores index, except that remove owns nothing past 0; remove
	// reports whether the device existed.
	create    func(ctx obs.OpCtx, cfg Config, domid uint32, index int, sw *Switch)
	remove    func(ctx obs.OpCtx, domid uint32, index int, sw *Switch) bool
	setFaults func(r *fault.Registry)
}

// extraEntries holds a device's kind-specific Xenstore entries; a kind
// with fewer than two leaves the rest empty.
type extraEntries [2]Entry

// list returns the entries up to the first empty one.
func (e *extraEntries) list() []Entry {
	n := 0
	for n < len(e) && e[n].Key != "" {
		n++
	}
	return e[:n]
}

// Table is the ordered device-kind table. Boot, inventory and clone visit
// it front to back (console, vif, 9pfs, vbd); teardown walks it in
// reverse.
type Table []Kind

// NewTable builds the table over a platform's backends; a nil backend
// leaves its row in place, marked absent.
func NewTable(console *ConsoleBackend, net *NetBackend, ninep *NinePBackend, vbd *VbdBackend) Table {
	return Table{{
		Dir: "console", CloneOp: xenstore.CloneDevConsole,
		present: console != nil, setFaults: console.SetFaults,
		// Every guest has a console.
		wanted: func(Config) int { return 1 },
		create: func(ctx obs.OpCtx, _ Config, domid uint32, _ int, _ *Switch) { console.Create(domid, ctx.Meter()) },
		Clone: func(ctx obs.OpCtx, parent, child uint32, _ int, _ *Switch) error {
			return console.Clone(parent, child, ctx.Meter())
		},
		remove: func(_ obs.OpCtx, domid uint32, index int, _ *Switch) bool {
			if index > 0 || !console.Has(domid) {
				return false
			}
			console.Remove(domid)
			return true
		},
	}, {
		// The backend call, then the userspace half: the udev event and
		// the switch.
		Dir: "vif", CloneOp: xenstore.CloneDevVif, Network: true,
		present: net != nil, setFaults: net.SetFaults,
		wanted: func(cfg Config) int { return len(cfg.Vifs) },
		entries: func(cfg Config, domid uint32, index int) extraEntries {
			// Both values are slices of one string: one allocation.
			var b [len("00:00:00:00:00:00") + len("255.255.255.255")]byte
			mac := netsim.MACForDomain(domid).Append(b[:0])
			s := string(cfg.Vifs[index].IP.Append(mac))
			return extraEntries{{Key: "mac", Value: s[:len(mac)]}, {Key: "ip", Value: s[len(mac):]}}
		},
		create: func(ctx obs.OpCtx, cfg Config, domid uint32, index int, sw *Switch) {
			net.plug(ctx, net.CreateVif(domid, index, cfg.Vifs[index].IP, ctx.Meter()), sw)
		},
		Clone: func(ctx obs.OpCtx, parent, child uint32, index int, sw *Switch) error {
			v, err := net.CloneVif(parent, child, index, ctx.Meter())
			if err == nil {
				net.plug(ctx, v, sw)
			}
			return err
		},
		remove: net.unplug,
	}, {
		// xl launches one backend process per booted guest, a clone joins
		// its parent's process over QMP, and one process serves a guest
		// whatever its mount count.
		Dir: "9pfs", CloneOp: xenstore.CloneDev9pfs,
		present: ninep != nil, setFaults: ninep.SetFaults,
		wanted: func(cfg Config) int { return len(cfg.NinePFS) },
		entries: func(cfg Config, _ uint32, index int) extraEntries {
			np := cfg.NinePFS[index]
			return extraEntries{{Key: "tag", Value: np.Tag}, {Key: "export", Value: np.Export}}
		},
		create: func(ctx obs.OpCtx, cfg Config, domid uint32, index int, _ *Switch) {
			ninep.Launch(ctx, domid, cfg.NinePFS[index].Export)
		},
		Clone: func(ctx obs.OpCtx, parent, child uint32, _ int, _ *Switch) error {
			return ninep.Clone(ctx, parent, child)
		},
		remove: func(_ obs.OpCtx, domid uint32, index int, _ *Switch) bool {
			return index == 0 && ninep.Remove(domid)
		},
	}, {
		Dir: "vbd", CloneOp: xenstore.CloneDevVbd,
		present: vbd != nil, setFaults: vbd.SetFaults,
		wanted: func(cfg Config) int { return len(cfg.Vbds) },
		create: func(ctx obs.OpCtx, _ Config, domid uint32, index int, _ *Switch) {
			vbd.Create(ctx, domid, index)
		},
		Clone: func(ctx obs.OpCtx, parent, child uint32, index int, _ *Switch) error {
			_, err := vbd.Clone(ctx, parent, child, index)
			return err
		},
		remove: func(_ obs.OpCtx, domid uint32, index int, _ *Switch) bool { return vbd.Remove(domid, index) },
	}}
}

// Create is the boot path of the kind: for every device of it cfg asks
// for, the Xenstore entries with the full Xenbus negotiation, then the
// backend state and its finalization.
func (k *Kind) Create(ctx obs.OpCtx, store *xenstore.Store, cfg Config, domid uint32, sw *Switch) error {
	for i, n := 0, k.wanted(cfg); i < n; i++ {
		if !k.present {
			return fmt.Errorf("devices: %s configured but no %s backend registered", k.Dir, k.Dir)
		}
		var extra extraEntries
		if k.entries != nil {
			extra = k.entries(cfg, domid, i)
		}
		if err := WriteDevicePair(ctx, store, domid, k.Dir, i, extra.list()); err != nil {
			return err
		}
		k.create(ctx, cfg, domid, i, sw)
	}
	return nil
}

// Kinds is a set of a Table's rows: bit k stands for row k.
type Kinds uint32

// AllKinds holds every row of any table.
const AllKinds = ^Kinds(0)

// Has reports whether the set holds row k.
func (s Kinds) Has(k int) bool { return s&(1<<k) != 0 }

// Teardown drops every backend object a domain owns — switch detach and
// udev remove event included — walking the kinds in reverse and each
// kind's indices upwards until the backend reports none, and returns the
// kinds it found one of. It asks the backends, not a configuration or
// inventory, so it undoes exactly what exists: a destroy, a half-built
// boot and a half-cloned child all unwind through it, and running it twice
// is harmless. Xenstore entries are the caller's to remove.
func (t Table) Teardown(ctx obs.OpCtx, domid uint32, sw *Switch) Kinds {
	var found Kinds
	for k := len(t) - 1; k >= 0; k-- {
		for i := 0; t[k].present && t[k].remove(ctx, domid, i, sw); i++ {
			found |= 1 << k
		}
	}
	return found
}

// SetFaults installs a fault-injection registry on every backend's clone
// path; nil disarms them.
func (t Table) SetFaults(r *fault.Registry) {
	for k := range t {
		if t[k].present {
			t[k].setFaults(r)
		}
	}
}
