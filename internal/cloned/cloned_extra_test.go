package cloned

import (
	"testing"

	"nephele/internal/hv"
	"nephele/internal/vclock"
)

func TestSkipNetworkDevicesKeepsConsoleAnd9pfs(t *testing.T) {
	r := newRig(t, Options{SkipNetworkDevices: true})
	rec := r.bootParent(t)
	child := r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	if _, err := r.xl.Backends.Net.Vif(uint32(child), 0); err == nil {
		t.Fatal("vif cloned despite SkipNetworkDevices")
	}
	if r.bond.Slaves() != 1 {
		t.Fatalf("bond slaves = %d, want parent only", r.bond.Slaves())
	}
	if !r.xl.Backends.Console.Has(uint32(child)) {
		t.Fatal("console skipped too")
	}
	if _, err := r.xl.Backends.NineP.Process(uint32(child)); err != nil {
		t.Fatal("9pfs skipped too")
	}
}

func TestSecondStageMeterCharges(t *testing.T) {
	r := newRig(t, Options{})
	rec := r.bootParent(t)
	meter := vclock.NewMeter(nil)
	child := r.cloneOne(t, rec.ID, meter)
	d, ok := r.d.SecondStageDuration(child)
	if !ok || d <= 0 {
		t.Fatalf("second stage duration = %v, %v", d, ok)
	}
	// The stage includes at least the wakeup, introduction and one
	// device-state clone.
	min := meter.Costs().XenclonedWake + meter.Costs().Introduce + meter.Costs().CloneDeviceState
	if d < min {
		t.Fatalf("second stage %v below mechanism floor %v", d, min)
	}
	if _, ok := r.d.SecondStageDuration(hv.DomID(9999)); ok {
		t.Fatal("duration reported for unknown child")
	}
}

func TestDeepCopySnapshotCacheReducesReads(t *testing.T) {
	r := newRig(t, Options{UseDeepCopy: true})
	rec := r.bootParent(t)
	r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	mid := r.store.Stats().Requests
	r.cloneOne(t, rec.ID, vclock.NewMeter(nil))
	second := r.store.Stats().Requests - mid
	// The second deep-copy clone reuses cached snapshots: its requests
	// are (almost) all writes. Another parent's first clone reads its
	// subtrees afresh.
	other := r.bootNamed(t, "other")
	mid2 := r.store.Stats().Requests
	r.cloneOne(t, other.ID, vclock.NewMeter(nil))
	cold := r.store.Stats().Requests - mid2
	if second >= cold {
		t.Fatalf("cached deep copy used %d requests, cold used %d", second, cold)
	}
}
