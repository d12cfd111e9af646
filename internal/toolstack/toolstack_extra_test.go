package toolstack

import (
	"errors"
	"testing"

	"nephele/internal/devices"
	"nephele/internal/fault"
	"nephele/internal/netsim"
	"nephele/internal/vclock"
)

func TestVbdConfiguredWithoutBackendFails(t *testing.T) {
	r := newRig(t) // rig has no vbd backend registered
	cfg := baseConfig("disk-vm")
	cfg.Vbds = []VbdConfig{{}}
	if _, err := r.xl.Create(cfg, nil); err == nil {
		t.Fatal("vbd create without backend succeeded")
	}
}

func TestVbdCreateAndDestroy(t *testing.T) {
	r := newRigVbd(t, devices.NewVbdBackend(make([]byte, 8*devices.SectorSize)))
	cfg := baseConfig("disk-vm")
	cfg.Vbds = []VbdConfig{{}}
	rec, err := r.xl.Create(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.xl.Backends.Vbd.Vbd(uint32(rec.ID), 0); err != nil {
		t.Fatal("vbd not created on boot")
	}
	st, err := devices.DeviceState(r.store, uint32(rec.ID), "vbd", 0, nil)
	if err != nil || st != devices.StateConnected {
		t.Fatalf("vbd state = %v, %v", st, err)
	}
	if err := r.xl.Destroy(rec.ID, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.xl.Backends.Vbd.Vbd(uint32(rec.ID), 0); err == nil {
		t.Fatal("vbd survived destroy")
	}
}

func TestSwitchDetachOnDestroy(t *testing.T) {
	// Exercises Detach for all three switch kinds through the destroy
	// path.
	for _, kind := range []string{"bridge", "bond", "ovs"} {
		r := newRig(t)
		switch kind {
		case "bridge":
			br := netsim.NewBridge("xenbr0")
			r.xl.Net = &BridgeSwitch{Bridge: br}
			rec, err := r.xl.Create(baseConfig("sw-"+kind), nil)
			if err != nil {
				t.Fatal(err)
			}
			if br.Ports() != 1 {
				t.Fatalf("%s: ports = %d", kind, br.Ports())
			}
			r.xl.Destroy(rec.ID, nil)
			if br.Ports() != 0 {
				t.Fatalf("%s: detach missed", kind)
			}
		case "bond":
			rec, err := r.xl.Create(baseConfig("sw-"+kind), nil)
			if err != nil {
				t.Fatal(err)
			}
			r.xl.Destroy(rec.ID, nil)
			if r.bond.Slaves() != 0 {
				t.Fatalf("%s: detach missed", kind)
			}
		case "ovs":
			g := netsim.NewOVSGroup("g")
			r.xl.Net = &OVSSwitch{Group: g, Uplink: r.host}
			rec, err := r.xl.Create(baseConfig("sw-"+kind), nil)
			if err != nil {
				t.Fatal(err)
			}
			if g.Buckets() != 1 {
				t.Fatalf("%s: buckets = %d", kind, g.Buckets())
			}
			r.xl.Destroy(rec.ID, nil)
			if g.Buckets() != 0 {
				t.Fatalf("%s: detach missed", kind)
			}
		}
	}
}

func TestNoConsoleConfig(t *testing.T) {
	r := newRig(t)
	cfg := baseConfig("headless")
	cfg.NoConsole = true
	rec, err := r.xl.Create(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.xl.Backends.Console.Has(uint32(rec.ID)) {
		t.Fatal("console created despite NoConsole")
	}
}

func TestZeroVCPUsDefaultsToOne(t *testing.T) {
	r := newRig(t)
	cfg := baseConfig("novcpu")
	cfg.VCPUs = 0
	rec, err := r.xl.Create(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := r.hv.Domain(rec.ID)
	if dom.VCPUCount() != 1 {
		t.Fatalf("VCPUCount = %d, want 1", dom.VCPUCount())
	}
}

func TestCreateFailureCleansUp(t *testing.T) {
	// Exhaust memory so hypervisor domain creation fails mid-way; the
	// registry must stay clean and the name reusable.
	r := newRig(t)
	big := baseConfig("huge")
	big.MemoryMB = 4096 // exceeds the 512 MiB rig
	if _, err := r.xl.Create(big, vclock.NewMeter(nil)); err == nil {
		t.Fatal("oversized create succeeded")
	}
	if r.xl.Count() != 0 {
		t.Fatalf("Count = %d after failed create", r.xl.Count())
	}
	// Name reusable with a sane size.
	ok := baseConfig("huge")
	if _, err := r.xl.Create(ok, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupErrors(t *testing.T) {
	r := newRig(t)
	if _, err := r.xl.Lookup("ghost"); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("Lookup ghost: %v", err)
	}
	if _, err := r.xl.Record(1234); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("Record ghost: %v", err)
	}
	if _, err := r.xl.Save(1234, nil); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("Save ghost: %v", err)
	}
}

// TestCreateFailureLeavesNothingBehind fails a console + vif + 9pfs boot at
// every Xenstore write it issues and checks that each failed xl create
// unwinds what it built: store nodes, netback vifs, consoles, bond slaves,
// machine frames and the registry read as before the call, and the same
// name then boots. A resident guest is booted first so the directories
// every guest shares (/local/domain/0/backend/<kind>) already exist.
func TestCreateFailureLeavesNothingBehind(t *testing.T) {
	r := newRig(t)
	reg := fault.NewRegistry()
	r.store.SetFaults(reg)
	cfg := baseConfig("victim")
	cfg.NinePFS = []NinePConfig{{Export: "/export/python", Tag: "python"}}
	resident := cfg
	resident.Name = "resident"
	writes := r.store.Stats().Writes
	rec, err := r.xl.Create(resident, nil)
	if err != nil {
		t.Fatal(err)
	}
	writes = r.store.Stats().Writes - writes
	if writes < 60 {
		t.Fatalf("a console + vif + 9pfs boot issued %d writes; the fault sweep would not reach its devices", writes)
	}

	nodes, vifs, slaves := r.store.NodeCount(), r.xl.Backends.Net.Count(), r.bond.Slaves()
	frames, doms, count := r.hv.Memory.FreeFrames(), r.hv.DomainCount(), r.xl.Count()
	for n := 1; n <= writes; n++ {
		reg.Inject(fault.PointXSWrite, fault.FailNth(n), fault.Fatal)
		_, err := r.xl.Create(cfg, nil)
		reg.Clear(fault.PointXSWrite)
		if !fault.IsFault(err) {
			t.Fatalf("write %d of %d armed: Create err = %v, want the injected fault", n, writes, err)
		}
		if got := r.store.NodeCount(); got != nodes {
			t.Fatalf("write %d: %d store nodes left behind", n, got-nodes)
		}
		if got := r.xl.Backends.Net.Count(); got != vifs {
			t.Fatalf("write %d: %d vifs left behind", n, got-vifs)
		}
		if got := r.bond.Slaves(); got != slaves {
			t.Fatalf("write %d: %d bond slaves left behind", n, got-slaves)
		}
		// Domain IDs are handed out in order: the failed boots took the n
		// after the resident's.
		for id := uint32(rec.ID) + 1; id <= uint32(rec.ID)+uint32(n); id++ {
			if r.xl.Backends.Console.Has(id) {
				t.Fatalf("write %d: console of domain %d left behind", n, id)
			}
			if _, err := r.xl.Backends.NineP.Process(id); err == nil {
				t.Fatalf("write %d: 9pfs process of domain %d left behind", n, id)
			}
		}
		if got := r.hv.Memory.FreeFrames(); got != frames {
			t.Fatalf("write %d: %d frames left behind", n, frames-got)
		}
		if got := r.hv.DomainCount(); got != doms {
			t.Fatalf("write %d: %d domains, want %d", n, got, doms)
		}
		if got := r.xl.Count(); got != count {
			t.Fatalf("write %d: %d registered domains, want %d", n, got, count)
		}
	}
	if _, err := r.xl.Create(cfg, nil); err != nil {
		t.Fatalf("boot under the same name after the failed ones: %v", err)
	}
}
