package cloned

import (
	"fmt"
	"testing"

	"nephele/internal/devices"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// rig wires a daemon with its dependencies, by hand (the core.Platform
// composition is tested in internal/core; these tests exercise the daemon
// in isolation).
type rig struct {
	hv    *hv.Hypervisor
	store *xenstore.Store
	xl    *toolstack.XL
	d     *Daemon
	bond  *netsim.Bond
}

func newRig(t *testing.T, opts Options) *rig {
	t.Helper()
	hyp := hv.New(hv.Config{
		MemoryBytes:             512 << 20,
		MaxEventPorts:           64,
		GrantEntries:            64,
		NotifyRingSlots:         64,
		PerDomainOverheadFrames: 8,
	})
	store := xenstore.New(0)
	udev := devices.NewUdevQueue()
	fs := devices.NewHostFS()
	fs.WriteFile("export/x", []byte("x"))
	be := toolstack.Backends{
		Net:     devices.NewNetBackend(udev),
		Console: devices.NewConsoleBackend(),
		NineP:   devices.NewNinePBackend(fs),
		Udev:    udev,
	}
	bond := netsim.NewBond("bond0")
	host := netsim.NewHost(netsim.MAC{0xaa}, netsim.IP{10, 0, 0, 1})
	sw := &toolstack.BondSwitch{Bond: bond, Uplink: host}
	xl := toolstack.New(hyp, store, be, sw)
	xl.SkipNameCheck = true
	d := New(hyp, store, xl, sw, opts)
	return &rig{hv: hyp, store: store, xl: xl, d: d, bond: bond}
}

func (r *rig) bootParent(t *testing.T) *toolstack.Record {
	t.Helper()
	rec, err := r.xl.Create(toolstack.DomainConfig{
		Name:      "parent",
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 64,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
		NinePFS:   []toolstack.NinePConfig{{Export: "/export", Tag: "root"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// cloneOne triggers first-stage cloning and serves the second stage.
// cloneN issues one CLONEOP for n children (copying the I/O ring, as the
// platform does) and unpacks the result.
func cloneN(h *hv.Hypervisor, caller, target hv.DomID, n int, meter *vclock.Meter) ([]hv.DomID, *hv.CloneOpStats, <-chan struct{}, error) {
	res := h.Clone(hv.CloneRequest{Caller: caller, Target: target, N: n, CopyRing: true, Ctx: obs.Ctx(meter)})
	return res.Children, res.Stats, res.Done, res.Err
}

func (r *rig) cloneOne(t *testing.T, parent hv.DomID, meter *vclock.Meter) hv.DomID {
	t.Helper()
	kids, _, done, err := cloneN(r.hv, parent, parent, 1, meter)
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.d.Serve(obs.Ctx(meter))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Serve served %d, want 1", n)
	}
	<-done
	return kids[0]
}

func TestDaemonEnablesCloningGlobally(t *testing.T) {
	r := newRig(t, Options{})
	rec := r.bootParent(t)
	// If the daemon had not enabled cloning, this would fail with
	// ErrCloningDisabled.
	child := r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	if child == 0 {
		t.Fatal("no child created")
	}
}

func TestSecondStageFullDeviceCloning(t *testing.T) {
	r := newRig(t, Options{})
	rec := r.bootParent(t)
	child := r.cloneOne(t, rec.ID, vclock.NewMeter(nil))

	// Toolstack adoption with a generated (unique) name.
	crec, err := r.xl.Record(child)
	if err != nil {
		t.Fatal(err)
	}
	if crec.Config.Name == "parent" {
		t.Fatal("clone name not uniquified")
	}
	// Xenstore: child base entries plus rewritten device entries.
	if name, _ := r.store.Read(fmt.Sprintf("/local/domain/%d/name", child), nil); name == "" {
		t.Fatal("child name entry missing")
	}
	st, err := devices.DeviceState(r.store, uint32(child), "vif", 0, nil)
	if err != nil {
		t.Fatalf("child vif entries missing: %v", err)
	}
	if st != devices.StateConnected {
		t.Fatalf("child vif state = %v, want Connected (negotiation skipped)", st)
	}
	// Backends: console, vif (enslaved), 9pfs (same process).
	if !r.xl.Backends.Console.Has(uint32(child)) {
		t.Fatal("child console missing")
	}
	if _, err := r.xl.Backends.Net.Vif(uint32(child), 0); err != nil {
		t.Fatal("child vif missing")
	}
	if r.bond.Slaves() != 2 {
		t.Fatalf("bond slaves = %d, want 2", r.bond.Slaves())
	}
	proc, err := r.xl.Backends.NineP.Process(uint32(child))
	if err != nil {
		t.Fatal("child 9pfs process missing")
	}
	if !proc.Serves(uint32(child)) {
		t.Fatal("child not adopted by family 9pfs process")
	}
	if r.xl.Backends.NineP.ProcessCount() != 1 {
		t.Fatal("clone spawned a second 9pfs process")
	}
	// Domains resumed.
	pd, _ := r.hv.Domain(rec.ID)
	cd, _ := r.hv.Domain(child)
	if pd.Paused() || cd.Paused() {
		t.Fatal("domains paused after completion")
	}
	if r.d.Served() != 1 {
		t.Fatalf("Served = %d", r.d.Served())
	}
	if _, ok := r.d.SecondStageDuration(child); !ok {
		t.Fatal("second stage duration not recorded")
	}
}

func TestCacheMakesLaterClonesCheaper(t *testing.T) {
	r := newRig(t, Options{})
	rec := r.bootParent(t)
	m1 := vclock.NewMeter(nil)
	c1 := r.cloneOne(t, rec.ID, m1)
	d1, _ := r.d.SecondStageDuration(c1)
	m2 := vclock.NewMeter(nil)
	c2 := r.cloneOne(t, rec.ID, m2)
	d2, _ := r.d.SecondStageDuration(c2)
	if d2 >= d1 {
		t.Fatalf("warm second stage (%v) not below cold (%v)", d2, d1)
	}
	// Invalidate and observe the cold cost again.
	r.d.InvalidateCache(rec.ID)
	m3 := vclock.NewMeter(nil)
	c3 := r.cloneOne(t, rec.ID, m3)
	d3, _ := r.d.SecondStageDuration(c3)
	if d3 <= d2 {
		t.Fatalf("post-invalidate second stage (%v) not above warm (%v)", d3, d2)
	}
}

func TestDisableCacheOption(t *testing.T) {
	r := newRig(t, Options{DisableCache: true})
	rec := r.bootParent(t)
	c1 := r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	c2 := r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	d1, _ := r.d.SecondStageDuration(c1)
	d2, _ := r.d.SecondStageDuration(c2)
	diff := d1 - d2
	if diff < 0 {
		diff = -diff
	}
	if diff > d1/20 {
		t.Fatalf("cache-less stages differ: %v vs %v", d1, d2)
	}
}

func TestDeepCopyProducesSameTreeMoreRequests(t *testing.T) {
	fast := newRig(t, Options{})
	slow := newRig(t, Options{UseDeepCopy: true})
	frec := fast.bootParent(t)
	srec := slow.bootParent(t)

	f0 := fast.store.Stats().Requests
	fc := fast.cloneOne(t, frec.ID, vclock.NewMeter(nil))
	fReq := fast.store.Stats().Requests - f0

	s0 := slow.store.Stats().Requests
	sc := slow.cloneOne(t, srec.ID, vclock.NewMeter(nil))
	sReq := slow.store.Stats().Requests - s0

	if sReq <= fReq {
		t.Fatalf("deep copy used %d requests, xs_clone %d", sReq, fReq)
	}
	// Same functional result: the child device is pre-connected either
	// way.
	for _, c := range []struct {
		r     *rig
		child hv.DomID
	}{{fast, fc}, {slow, sc}} {
		st, err := devices.DeviceState(c.r.store, uint32(c.child), "vif", 0, nil)
		if err != nil || st != devices.StateConnected {
			t.Fatalf("child state = %v, %v", st, err)
		}
	}
}

func TestSkipDevicesOption(t *testing.T) {
	r := newRig(t, Options{SkipDevices: true})
	rec := r.bootParent(t)
	child := r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	if _, err := r.xl.Backends.Net.Vif(uint32(child), 0); err == nil {
		t.Fatal("devices cloned despite SkipDevices")
	}
	// The mandatory part still ran: toolstack adoption + introduction.
	if _, err := r.xl.Record(child); err != nil {
		t.Fatal("child not adopted")
	}
}

func TestLeaveChildrenPausedOption(t *testing.T) {
	r := newRig(t, Options{LeaveChildrenPaused: true})
	rec := r.bootParent(t)
	child := r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	cd, _ := r.hv.Domain(child)
	if !cd.Paused() {
		t.Fatal("child resumed despite LeaveChildrenPaused")
	}
	pd, _ := r.hv.Domain(rec.ID)
	if pd.Paused() {
		t.Fatal("parent left paused")
	}
}

func TestServeAllEmptyRing(t *testing.T) {
	r := newRig(t, Options{})
	n, err := r.d.Serve(obs.OpCtx{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("served %d from empty ring", n)
	}
}

func TestServeBatchOfClones(t *testing.T) {
	r := newRig(t, Options{})
	rec := r.bootParent(t)
	kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil)))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("served %d, want 3", n)
	}
	<-done
	if r.bond.Slaves() != 4 {
		t.Fatalf("bond slaves = %d, want 4", r.bond.Slaves())
	}
	for _, k := range kids {
		if cd, _ := r.hv.Domain(k); cd.Paused() {
			t.Fatalf("child %d paused", k)
		}
	}
}
