package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if got := c.Now(); got != 0 {
		t.Fatalf("zero clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	if got := c.Advance(5 * time.Millisecond); got != 5*time.Millisecond {
		t.Fatalf("Advance returned %v, want 5ms", got)
	}
	c.Advance(time.Millisecond)
	if got := c.Now(); got != 6*time.Millisecond {
		t.Fatalf("Now() = %v, want 6ms", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	var c Clock
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	c.Advance(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	var c Clock
	c.Advance(10 * time.Millisecond)
	if got := c.AdvanceTo(5 * time.Millisecond); got != 10*time.Millisecond {
		t.Fatalf("AdvanceTo(past) = %v, want clock unchanged at 10ms", got)
	}
	if got := c.AdvanceTo(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("AdvanceTo(future) = %v, want 20ms", got)
	}
}

func TestClockAdvanceMonotonicProperty(t *testing.T) {
	// Any sequence of non-negative advances keeps the clock equal to
	// their running sum.
	f := func(steps []uint16) bool {
		var c Clock
		var sum Duration
		for _, s := range steps {
			d := Duration(s) * time.Microsecond
			sum += d
			if c.Advance(d) != sum {
				return false
			}
		}
		return c.Now() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeterCharges(t *testing.T) {
	m := NewMeter(nil)
	m.Charge(time.Microsecond, 10)
	m.Add(5 * time.Microsecond)
	if got := m.Elapsed(); got != 15*time.Microsecond {
		t.Fatalf("Elapsed() = %v, want 15µs", got)
	}
	m.Reset()
	if got := m.Elapsed(); got != 0 {
		t.Fatalf("after Reset Elapsed() = %v, want 0", got)
	}
}

func TestMeterNilCostsUsesDefault(t *testing.T) {
	m := NewMeter(nil)
	if m.Costs() == nil {
		t.Fatal("nil cost table after NewMeter(nil)")
	}
	if m.Costs().PageCopy <= 0 {
		t.Fatal("default PageCopy cost not positive")
	}
}

func TestMeterNilReceiverIsDisabled(t *testing.T) {
	var m *Meter
	m.Charge(time.Microsecond, 3)
	m.Add(time.Millisecond)
	if m.Elapsed() != 0 {
		t.Fatalf("nil meter reads %v elapsed", m.Elapsed())
	}
	costs := m.Costs()
	if again := m.Costs(); again != costs {
		t.Fatal("nil meter's Costs is not one shared table")
	}
	if got, want := *costs, *DefaultCosts(); got != want {
		t.Fatal("nil meter's Costs differs from DefaultCosts")
	}
	if n := testing.AllocsPerRun(100, func() {
		m.Charge(m.Costs().PageCopy, 1)
		m.Add(m.Costs().Hypercall)
	}); n != 0 {
		t.Fatalf("nil meter path allocates %v times per call", n)
	}
}

func TestMeterNegativeChargePanics(t *testing.T) {
	m := NewMeter(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Charge with negative count did not panic")
		}
	}()
	m.Charge(time.Microsecond, -1)
}

func TestMeterLap(t *testing.T) {
	m := NewMeter(nil)
	m.Add(10 * time.Microsecond)
	mark := m.Elapsed()
	m.Add(7 * time.Microsecond)
	if got := m.Lap(mark); got != 7*time.Microsecond {
		t.Fatalf("Lap = %v, want 7µs", got)
	}
}

func TestDefaultCostsAllPositive(t *testing.T) {
	c := DefaultCosts()
	checks := map[string]Duration{
		"Hypercall":        c.Hypercall,
		"DomainCreate":     c.DomainCreate,
		"DomainDestroy":    c.DomainDestroy,
		"VCPUClone":        c.VCPUClone,
		"PageAlloc":        c.PageAlloc,
		"PageCopy":         c.PageCopy,
		"PageShare":        c.PageShare,
		"PageUnshare":      c.PageUnshare,
		"PTEntryClone":     c.PTEntryClone,
		"P2MEntryClone":    c.P2MEntryClone,
		"GrantEntryClone":  c.GrantEntryClone,
		"EvtchnClone":      c.EvtchnClone,
		"VIRQDeliver":      c.VIRQDeliver,
		"CloneRingPush":    c.CloneRingPush,
		"StoreRequest":     c.StoreRequest,
		"StorePerNode":     c.StorePerNode,
		"StoreLogRot":      c.StoreLogRot,
		"ToolstackBoot":    c.ToolstackBoot,
		"NameCheckPerVM":   c.NameCheckPerVM,
		"DeviceNegotiate":  c.DeviceNegotiate,
		"BackendCreate":    c.BackendCreate,
		"UdevEvent":        c.UdevEvent,
		"SwitchAttach":     c.SwitchAttach,
		"QMPRoundTrip":     c.QMPRoundTrip,
		"NinePFidClone":    c.NinePFidClone,
		"ImagePageSave":    c.ImagePageSave,
		"ImagePageRestore": c.ImagePageRestore,
		"XenclonedWake":    c.XenclonedWake,
		"Introduce":        c.Introduce,
		"GuestBootKernel":  c.GuestBootKernel,
		"GuestNetReady":    c.GuestNetReady,
		"GuestUDPNotify":   c.GuestUDPNotify,
		"ProcForkBase":     c.ProcForkBase,
		"ProcPTEntryCopy":  c.ProcPTEntryCopy,
		"ProcMarkCOWEntry": c.ProcMarkCOWEntry,
		"ProcExecBase":     c.ProcExecBase,
		"ContainerStart":   c.ContainerStart,
		"ContainerReady":   c.ContainerReady,
	}
	for name, d := range checks {
		if d <= 0 {
			t.Errorf("cost %s = %v, want > 0", name, d)
		}
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				c.Advance(time.Nanosecond)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	if got := c.Now(); got != 8000*time.Nanosecond {
		t.Fatalf("concurrent advances lost updates: Now() = %v, want 8µs", got)
	}
}
