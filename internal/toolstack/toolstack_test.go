package toolstack

import (
	"errors"
	"fmt"
	"testing"

	"nephele/internal/devices"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// rig bundles a toolstack test environment.
type rig struct {
	hv    *hv.Hypervisor
	store *xenstore.Store
	xl    *XL
	host  *netsim.Host
	bond  *netsim.Bond
}

func newRig(t *testing.T) *rig { return newRigVbd(t, nil) }

// newRigVbd is newRig with a vbd backend registered (nil registers none).
// The rig's memory pool is audited when the test ends.
func newRigVbd(t *testing.T, vbd *devices.VbdBackend) *rig {
	t.Helper()
	hyp := hv.New(512 << 20)
	store := xenstore.New(0)
	udev := devices.NewUdevQueue()
	fs := devices.NewHostFS()
	fs.WriteFile("export/python/runtime.py", []byte("print('hi')"))
	be := Backends{
		Net:     devices.NewNetBackend(udev),
		Console: devices.NewConsoleBackend(),
		NineP:   devices.NewNinePBackend(fs),
		Vbd:     vbd,
		Udev:    udev,
	}
	host := netsim.NewHost(netsim.MAC{0xde, 0xad}, netsim.IP{10, 0, 0, 1})
	bond := netsim.NewBond("bond0")
	xl := New(hyp, store, be, &devices.Switch{Bond: bond, Uplink: host})
	t.Cleanup(func() {
		if err := hyp.Memory.Audit(); err != nil {
			t.Error(err)
		}
	})
	return &rig{hv: hyp, store: store, xl: xl, host: host, bond: bond}
}

func baseConfig(name string) DomainConfig {
	return DomainConfig{
		Name:     name,
		MemoryMB: 4,
		VCPUs:    1,
		Vifs:     []VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
}

func TestConfigPagesMinimum(t *testing.T) {
	if got := (DomainConfig{MemoryMB: 1}).Pages(); got != 1024 {
		t.Fatalf("1MB config pages = %d, want 1024 (4 MiB minimum)", got)
	}
	if got := (DomainConfig{MemoryMB: 64}).Pages(); got != 64*256 {
		t.Fatalf("64MB config pages = %d", got)
	}
}

func TestCreateBootsDomainWithDevices(t *testing.T) {
	r := newRig(t)
	meter := vclock.NewMeter(nil)
	rec, err := r.xl.Create(baseConfig("udp-0"), meter)
	if err != nil {
		t.Fatal(err)
	}
	// Registry state.
	if r.xl.Count() != 1 {
		t.Fatalf("Count = %d", r.xl.Count())
	}
	if got, _ := r.xl.Lookup("udp-0"); got.ID != rec.ID {
		t.Fatal("Lookup mismatch")
	}
	// Xenstore has the introduction and device entries.
	if name, _ := r.store.Read(fmt.Sprintf("/local/domain/%d/name", rec.ID), nil); name != "udp-0" {
		t.Fatalf("name entry = %q", name)
	}
	st, err := devices.DeviceState(obs.OpCtx{}, r.store, uint32(rec.ID), "vif", 0)
	if err != nil || st != devices.StateConnected {
		t.Fatalf("vif state = %v, %v", st, err)
	}
	// Backend and switch wiring.
	if r.bond.Slaves() != 1 {
		t.Fatalf("bond slaves = %d", r.bond.Slaves())
	}
	if !r.xl.Backends.Console.Has(uint32(rec.ID)) {
		t.Fatal("console backend missing")
	}
	// Boot cost is in the right ballpark (Fig. 4: 160 ms for the first
	// instance; toolstack-side only, guest boot excluded).
	ms := meter.Elapsed().Seconds() * 1e3
	if ms < 30 || ms > 400 {
		t.Fatalf("boot cost = %.1f ms, out of plausible range", ms)
	}
}

func TestCreateDuplicateName(t *testing.T) {
	r := newRig(t)
	if _, err := r.xl.Create(baseConfig("dup"), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := r.xl.Create(baseConfig("dup"), nil); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestNameCheckCostGrowsWithInstances(t *testing.T) {
	r := newRig(t)
	for i := 0; i < 20; i++ {
		if _, err := r.xl.Create(baseConfig(fmt.Sprintf("vm-%d", i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	withCheck := vclock.NewMeter(nil)
	if _, err := r.xl.Create(baseConfig("probe-a"), withCheck); err != nil {
		t.Fatal(err)
	}
	r.xl.SkipNameCheck = true
	without := vclock.NewMeter(nil)
	if _, err := r.xl.Create(baseConfig("probe-b"), without); err != nil {
		t.Fatal(err)
	}
	if withCheck.Elapsed() <= without.Elapsed() {
		t.Fatalf("name check added no cost: %v vs %v", withCheck.Elapsed(), without.Elapsed())
	}
}

func TestDestroyReleasesEverything(t *testing.T) {
	r := newRig(t)
	free0 := r.hv.Memory.FreeFrames()
	rec, err := r.xl.Create(baseConfig("gone"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.xl.Destroy(rec.ID, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.hv.Memory.FreeFrames(); got != free0 {
		t.Fatalf("destroy leaked %d frames", free0-got)
	}
	if r.xl.Count() != 0 || r.bond.Slaves() != 0 {
		t.Fatal("registry or switch state leaked")
	}
	if r.store.Exists(fmt.Sprintf("/local/domain/%d", rec.ID), nil) {
		t.Fatal("xenstore subtree leaked")
	}
	// Name is reusable.
	if _, err := r.xl.Create(baseConfig("gone"), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.xl.Destroy(99, nil); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("destroy unknown: %v", err)
	}
}

func TestDom0MemAccounting(t *testing.T) {
	r := newRig(t)
	rec, _ := r.xl.Create(baseConfig("m"), nil)
	if got := r.xl.Dom0MemUsed(); got != Dom0MemPerInstanceBytes {
		t.Fatalf("Dom0MemUsed = %d", got)
	}
	r.xl.Destroy(rec.ID, nil)
	if got := r.xl.Dom0MemUsed(); got != 0 {
		t.Fatalf("Dom0MemUsed after destroy = %d", got)
	}
}

func TestSaveRestoreRoundTrip(t *testing.T) {
	r := newRig(t)
	rec, err := r.xl.Create(baseConfig("orig"), nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := r.hv.Domain(rec.ID)
	dom.Space().Write(5, 100, []byte("precious state"), nil)

	meter := vclock.NewMeter(nil)
	img, err := r.xl.Save(rec.ID, meter)
	if err != nil {
		t.Fatal(err)
	}
	if img.Pages() != baseConfig("x").Pages() {
		t.Fatalf("image pages = %d", img.Pages())
	}
	if meter.Elapsed() < meter.Costs().ImagePageSave {
		t.Fatal("save cost not charged")
	}

	meter2 := vclock.NewMeter(nil)
	rec2, err := r.xl.Restore(img, "restored", meter2)
	if err != nil {
		t.Fatal(err)
	}
	dom2, _ := r.hv.Domain(rec2.ID)
	buf := make([]byte, 14)
	dom2.Space().Read(5, 100, buf)
	if string(buf) != "precious state" {
		t.Fatalf("restored memory = %q", buf)
	}
	// Restore charges the full image size: restore > boot-only cost.
	wantAtLeast := meter2.Costs().ImagePageRestore * vclock.Duration(img.Pages())
	if meter2.Elapsed() < wantAtLeast {
		t.Fatalf("restore charged %v, want at least %v of memory copying", meter2.Elapsed(), wantAtLeast)
	}
}

func TestRestoreIntoFreshNameRequired(t *testing.T) {
	r := newRig(t)
	rec, _ := r.xl.Create(baseConfig("orig"), nil)
	img, _ := r.xl.Save(rec.ID, nil)
	if _, err := r.xl.Restore(img, "orig", nil); !errors.Is(err, ErrNameTaken) {
		t.Fatalf("restore over running name: %v", err)
	}
}

func TestAdoptClone(t *testing.T) {
	r := newRig(t)
	rec, _ := r.xl.Create(baseConfig("parent"), nil)
	crec, err := r.xl.AdoptClone(rec.ID, hv.DomID(500), "parent-clone-500")
	if err != nil {
		t.Fatal(err)
	}
	if crec.Config.Name != "parent-clone-500" || crec.Config.MemoryMB != rec.Config.MemoryMB {
		t.Fatalf("clone adopted as %q with %d MB, want parent-clone-500 with the parent's %d",
			crec.Config.Name, crec.Config.MemoryMB, rec.Config.MemoryMB)
	}
	if r.xl.Count() != 2 {
		t.Fatalf("Count = %d", r.xl.Count())
	}
	if _, err := r.xl.AdoptClone(hv.DomID(999), hv.DomID(501), "orphan-clone-501"); !errors.Is(err, ErrNoDomain) {
		t.Fatalf("adopt from unknown parent: %v", err)
	}
}
