package bench

import (
	"fmt"

	"nephele/internal/cloned"
	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// miniOSUDP is the Fig. 4 guest: a Mini-OS UDP server, 4 MB of memory, a
// single vif.
func miniOSUDP(name string) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 1 << 20,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
}

// fig4Platform builds a machine for one curve. The name-uniqueness scan is
// disabled for the boot baselines, matching the paper's methodology (names
// are generated and unique, and vanilla xl's check would add LightVM's
// superlinear growth).
func fig4Platform(deep bool) *core.Platform {
	return core.NewPlatform(core.Options{
		SkipNameCheck: true,
		Cloned:        cloned.Options{UseDeepCopy: deep},
	})
}

// fig4 regenerates Figure 4 (§6.1): instantiation times for booting,
// restoring, cloning with the Xenstore deep copy, and cloning with
// xs_clone, across iteratively created instances. tr, when non-nil,
// records every xs_clone fork()'s two-stage span tree; spans never charge
// the virtual clock, so the curve is identical with and without it.
func fig4(quick bool, tr *obs.Trace) (*Figure, error) {
	n, every := 1000, 20 // the paper's 1000 instances
	if quick {
		n, every = 100, 25
	}
	fig := &Figure{
		ID:     "fig4",
		Title:  "Instantiation times for Mini-OS UDP server",
		XLabel: "# of instances",
		YLabel: "milliseconds",
	}

	// --- boot ---
	bootP := fig4Platform(false)
	var boot Series
	boot.Name = "boot"
	for i := 0; i < n; i++ {
		meter := bootP.NewMeter()
		rec, err := bootP.Boot(miniOSUDP(fmt.Sprintf("udp-%d", i)), meter)
		if err != nil {
			return nil, fmt.Errorf("fig4 boot %d: %w", i, err)
		}
		if _, err := guest.Boot(bootP, rec, guest.FlavorMiniOS, meter); err != nil {
			return nil, err
		}
		if sampled(i, n, every) {
			boot.Points = append(boot.Points, Point{X: float64(i + 1), Y: ms(meter.Elapsed())})
		}
	}

	// --- restore ---
	restP := fig4Platform(false)
	var restore Series
	restore.Name = "restore"
	for i := 0; i < n; i++ {
		// Create a fresh instance, save it, destroy the original and
		// measure the restore (launch -> UDP ready).
		rec, err := restP.Boot(miniOSUDP(fmt.Sprintf("save-%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("fig4 save-boot %d: %w", i, err)
		}
		if _, err := guest.Boot(restP, rec, guest.FlavorMiniOS, nil); err != nil {
			return nil, err
		}
		img, err := restP.XL.Save(rec.ID, nil)
		if err != nil {
			return nil, err
		}
		if err := restP.Destroy(rec.ID, nil); err != nil {
			return nil, err
		}
		meter := restP.NewMeter()
		rrec, err := restP.XL.Restore(img, fmt.Sprintf("restored-%d", i), meter)
		if err != nil {
			return nil, err
		}
		if _, err := guest.Boot(restP, rrec, guest.FlavorMiniOS, meter); err != nil {
			return nil, err
		}
		if sampled(i, n, every) {
			restore.Points = append(restore.Points, Point{X: float64(i + 1), Y: ms(meter.Elapsed())})
		}
	}

	// --- clone + XS deep copy (ablation), then clone (xs_clone) ---
	deep, err := fig4CloneCurve("clone + XS deep copy", true, nil, n, every)
	if err != nil {
		return nil, err
	}
	clone, err := fig4CloneCurve("clone", false, tr, n, every)
	if err != nil {
		return nil, err
	}

	fig.Series = []Series{boot, restore, deep, clone}
	speedup := boot.First().Y / clone.First().Y
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("boot: %.0f -> %.0f ms (paper: 160 -> 300)", boot.First().Y, boot.Last().Y),
		fmt.Sprintf("restore: %.0f -> %.0f ms (paper: 180 -> 330)", restore.First().Y, restore.Last().Y),
		fmt.Sprintf("clone + XS deep copy: %.0f -> %.0f ms (paper: 40 -> 130)", deep.First().Y, deep.Last().Y),
		fmt.Sprintf("clone: %.0f -> %.0f ms (paper: 20 -> 30)", clone.First().Y, clone.Last().Y),
		fmt.Sprintf("clone speedup over boot at instance 1: %.1fx (paper: ~8x)", speedup),
	)
	return fig, nil
}

// sampled reports whether instance i of n is a reported point: the first,
// every every-th and the last. Unreported instances still drive the
// platform.
func sampled(i, n, every int) bool { return i == 0 || (i+1)%every == 0 || i == n-1 }

// fig4CloneCurve boots one parent on a fresh Fig. 4 platform (with the
// Xenstore deep copy if deep) that clones itself n times; each fork() call
// is measured from hypercall entry to child readiness.
func fig4CloneCurve(name string, deep bool, tr *obs.Trace, n, every int) (Series, error) {
	p := fig4Platform(deep)
	if tr != nil {
		p.Observe(tr)
	}
	var s Series
	s.Name = name
	rec, err := p.Boot(miniOSUDP("udp-parent"), nil)
	if err != nil {
		return s, fmt.Errorf("fig4 %s parent: %w", name, err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil)
	if err != nil {
		return s, err
	}
	for i := 0; i < n; i++ {
		meter := p.NewMeter()
		if _, err := k.Fork(obs.Ctx(meter), 1, nil); err != nil {
			return s, fmt.Errorf("fig4 %s clone %d: %w", name, i, err)
		}
		// The child signals readiness with the UDP notification, like
		// its parent did on boot (each clone gets a unique UDP port so
		// the bond's layer3+4 hash maps it to its own slave).
		meter.Charge(meter.Costs().GuestUDPNotify, 1)
		if sampled(i, n, every) {
			s.Points = append(s.Points, Point{X: float64(i + 1), Y: ms(meter.Elapsed())})
		}
	}
	return s, nil
}
