package core

import (
	"testing"
	"time"

	"nephele/internal/cloned"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

func smallPlatform(opts Options) *Platform {
	if opts.HV.MemoryBytes == 0 {
		opts.HV = hv.Config{
			MemoryBytes:             1 << 30,
			PerDomainOverheadFrames: 90,
		}
	}
	if opts.StoreLogRotateEvery == 0 {
		opts.StoreLogRotateEvery = -1 // effectively never in small tests
	}
	return NewPlatform(opts)
}

func udpServerConfig(name string) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 1000,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
}

// fork clones parent n times as the guest itself would (Caller = Parent)
// through a one-spec CloneOp and returns its single result.
func fork(p *Platform, parent DomID, n int, meter *vclock.Meter) (*CloneResult, error) {
	res, err := p.CloneOp(obs.Ctx(meter), CloneSpec{Caller: parent, Parent: parent, Count: n})
	if len(res) == 0 {
		return nil, err
	}
	return res[0], err
}

func TestBootAndDestroy(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	meter := p.NewMeter()
	rec, err := p.Boot(udpServerConfig("udp-0"), meter)
	if err != nil {
		t.Fatal(err)
	}
	if p.Memory().Instances != 1 {
		t.Fatalf("Instances = %d", p.Memory().Instances)
	}
	if _, err := p.GuestVif(rec.ID, 0); err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(rec.ID, nil); err != nil {
		t.Fatal(err)
	}
	if p.Memory().Instances != 0 {
		t.Fatal("instance not removed")
	}
}

func TestCloneEndToEnd(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	rec, err := p.Boot(udpServerConfig("udp-0"), nil)
	if err != nil {
		t.Fatal(err)
	}
	meter := p.NewMeter()
	res, err := fork(p, rec.ID, 1, meter)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Children) != 1 {
		t.Fatalf("children = %d", len(res.Children))
	}
	child := res.Children[0]

	// Both domains are runnable.
	pd, _ := p.HV.Domain(rec.ID)
	cd, err := p.HV.Domain(child)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Paused() || cd.Paused() {
		t.Fatal("domains paused after completed clone")
	}
	// Family relation and toolstack adoption.
	if !p.HV.SameFamily(rec.ID, child) {
		t.Fatal("not family")
	}
	if _, err := p.XL.Record(child); err != nil {
		t.Fatal("clone not in toolstack registry")
	}
	// Device cloning: child has a vif with identical MAC/IP, attached to
	// the bond.
	pv, _ := p.GuestVif(rec.ID, 0)
	cv, err := p.GuestVif(child, 0)
	if err != nil {
		t.Fatal(err)
	}
	if cv.MAC != pv.MAC || cv.IP != pv.IP {
		t.Fatal("clone vif identity differs")
	}
	if p.Bond.Slaves() != 2 {
		t.Fatalf("bond slaves = %d, want 2", p.Bond.Slaves())
	}
	// Console cloned, empty.
	if !p.Backends.Console.Has(uint32(child)) {
		t.Fatal("child console missing")
	}
	// Timing recorded on the result.
	if res.Total <= 0 {
		t.Fatal("clone total not recorded")
	}
	if res.FirstStage <= 0 || res.SecondStage <= 0 || res.Total < res.FirstStage+res.SecondStage {
		t.Fatalf("stage accounting inconsistent: %+v", res)
	}
}

func TestCloneLatencyCalibration(t *testing.T) {
	// Fig. 4: cloning the 4 MB UDP server takes 20-30 ms; Fig. 4's
	// ablation (deep copy) takes 40-130 ms. Check the xs_clone path at
	// low instance counts is in the 15-35 ms band.
	p := smallPlatform(Options{SkipNameCheck: true})
	rec, _ := p.Boot(udpServerConfig("udp-0"), nil)
	res, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ms := res.Total.Seconds() * 1e3
	if ms < 10 || ms > 40 {
		t.Fatalf("clone total = %.1f ms, want ~20-30 ms", ms)
	}
	// First stage ~1 ms at 4 MB (§6.1).
	fs := res.FirstStage.Seconds() * 1e3
	if fs < 0.1 || fs > 3 {
		t.Fatalf("first stage = %.2f ms, want ~1 ms", fs)
	}
}

func TestCloneDeepCopySlower(t *testing.T) {
	fast := smallPlatform(Options{SkipNameCheck: true})
	slow := smallPlatform(Options{SkipNameCheck: true, Cloned: cloned.Options{UseDeepCopy: true}})
	frec, _ := fast.Boot(udpServerConfig("udp-0"), nil)
	srec, _ := slow.Boot(udpServerConfig("udp-0"), nil)
	fres, err := fork(fast, frec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := fork(slow, srec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Total <= fres.Total {
		t.Fatalf("deep copy (%v) not slower than xs_clone (%v)", sres.Total, fres.Total)
	}
}

func TestCloneOfCloneThroughPlatform(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	rec, _ := p.Boot(udpServerConfig("udp-0"), nil)
	res1, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := fork(p, res1.Children[0], 1, nil)
	if err != nil {
		t.Fatalf("clone of clone: %v", err)
	}
	if !p.HV.SameFamily(rec.ID, res2.Children[0]) {
		t.Fatal("grandchild not in family")
	}
}

func TestSecondCloneCheaperWithCache(t *testing.T) {
	// §6.2: userspace operations drop from ~3 ms to ~1.9 ms thanks to
	// xencloned's parent-info caching.
	p := smallPlatform(Options{SkipNameCheck: true})
	rec, _ := p.Boot(udpServerConfig("udp-0"), nil)
	r1, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.SecondStage >= r1.SecondStage {
		t.Fatalf("second clone second stage (%v) not cheaper than first (%v)", r2.SecondStage, r1.SecondStage)
	}

	// Without the cache both cost the same.
	q := smallPlatform(Options{SkipNameCheck: true, Cloned: cloned.Options{DisableCache: true}})
	qrec, _ := q.Boot(udpServerConfig("udp-0"), nil)
	q1, _ := fork(q, qrec.ID, 1, nil)
	q2, _ := fork(q, qrec.ID, 1, nil)
	diff := q1.SecondStage - q2.SecondStage
	if diff < 0 {
		diff = -diff
	}
	if diff > q1.SecondStage/20 {
		t.Fatalf("cache-less clones differ: %v vs %v", q1.SecondStage, q2.SecondStage)
	}
}

func TestSkipDevicesOption(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true, Cloned: cloned.Options{SkipDevices: true}})
	rec, _ := p.Boot(udpServerConfig("udp-0"), nil)
	res, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No vif was cloned.
	if _, err := p.GuestVif(res.Children[0], 0); err == nil {
		t.Fatal("vif cloned despite SkipDevices")
	}
	if p.Bond.Slaves() != 1 {
		t.Fatalf("bond slaves = %d, want 1", p.Bond.Slaves())
	}
}

func TestSkipNetworkDevicesOption(t *testing.T) {
	// The Redis experiment clones 9pfs but skips network devices (§7.1).
	p := smallPlatform(Options{SkipNameCheck: true, Cloned: cloned.Options{SkipNetworkDevices: true}})
	p.HostFS.WriteFile("export/x", []byte("x"))
	cfg := udpServerConfig("redis-0")
	cfg.NinePFS = []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}}
	rec, _ := p.Boot(cfg, nil)
	res, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	child := res.Children[0]
	if _, err := p.GuestVif(child, 0); err == nil {
		t.Fatal("network device cloned despite option")
	}
	proc, err := p.Backends.NineP.Process(uint32(child))
	if err != nil {
		t.Fatal("9pfs not cloned")
	}
	if !proc.Serves(uint32(child)) {
		t.Fatal("child not adopted by 9pfs process")
	}
}

func TestLeaveChildrenPaused(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true, Cloned: cloned.Options{LeaveChildrenPaused: true}})
	rec, _ := p.Boot(udpServerConfig("udp-0"), nil)
	res, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cd, _ := p.HV.Domain(res.Children[0])
	if !cd.Paused() {
		t.Fatal("child running despite LeaveChildrenPaused")
	}
	pd, _ := p.HV.Domain(rec.ID)
	if pd.Paused() {
		t.Fatal("parent still paused")
	}
}

func TestCloneGrowthWithInstances(t *testing.T) {
	// Fig. 4's slope: clone latency grows mildly with the number of
	// instances (store size), much slower than boot latency grows.
	p := NewPlatform(Options{
		HV:            hv.Config{MemoryBytes: 4 << 30, PerDomainOverheadFrames: 90},
		SkipNameCheck: true,
	})
	rec, _ := p.Boot(udpServerConfig("udp-0"), nil)
	var first, last time.Duration
	const n = 60
	for i := 0; i < n; i++ {
		res, err := fork(p, rec.ID, 1, nil)
		if err != nil {
			t.Fatalf("clone %d: %v", i, err)
		}
		if i == 1 {
			first = res.Total // skip clone 0 (cache warmup)
		}
		last = res.Total
	}
	if last <= first {
		t.Fatalf("clone latency did not grow: %v -> %v", first, last)
	}
	cloneSlope := (last - first).Seconds() / float64(n-2)
	if cloneSlope <= 0 {
		t.Fatal("no clone slope measured")
	}
}

func TestMemoryReport(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	before := p.Memory()
	rec, _ := p.Boot(udpServerConfig("udp-0"), nil)
	after := p.Memory()
	if after.HypFreeBytes >= before.HypFreeBytes {
		t.Fatal("boot did not consume hypervisor memory")
	}
	if after.Dom0UsedBytes <= before.Dom0UsedBytes {
		t.Fatal("boot did not consume Dom0 memory")
	}
	res, _ := fork(p, rec.ID, 1, nil)
	_ = res
	withClone := p.Memory()
	bootCost := before.HypFreeBytes - after.HypFreeBytes
	cloneCost := after.HypFreeBytes - withClone.HypFreeBytes
	if cloneCost >= bootCost {
		t.Fatalf("clone memory cost (%d) not below boot cost (%d)", cloneCost, bootCost)
	}
	if withClone.SharedFrames == 0 {
		t.Fatal("no shared frames after clone")
	}
}

func TestPlatformString(t *testing.T) {
	p := smallPlatform(Options{})
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}
