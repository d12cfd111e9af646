// Package nephele's root benchmark suite: ablation benchmarks for the
// design choices DESIGN.md calls out, plus single-operation benchmarks no
// figure shows, reporting virtual-time metrics via b.ReportMetric. They
// are developer tools, gated by nothing: the paper's figures come from
// cmd/nephele-bench -fig N, the simulator's host cost from benchmark/.
package nephele_test

import (
	"fmt"
	"testing"

	"nephele/internal/apps"
	"nephele/internal/cloned"
	"nephele/internal/core"
	"nephele/internal/devices"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// benchGuest is the Fig. 4 guest configuration.
func benchGuest(name string) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 1 << 20,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
}

// --- Ablations (DESIGN.md §5) ---

// cloneOnce boots a parent guest on a platform built by mk and measures
// one warm clone (the second, past the xencloned cache warmup).
func cloneOnce(b *testing.B, opts core.Options) vclock.Duration {
	b.Helper()
	if opts.MemoryBytes == 0 {
		opts.MemoryBytes = 1 << 30
	}
	opts.SkipNameCheck = true
	p := core.NewPlatform(opts)
	rec, err := p.Boot(benchGuest("ablation-parent"), nil)
	if err != nil {
		b.Fatal(err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := k.Fork(1, nil, nil); err != nil { // cache warmup
		b.Fatal(err)
	}
	meter := p.NewMeter()
	if _, err := k.Fork(1, nil, meter); err != nil {
		b.Fatal(err)
	}
	return meter.Elapsed()
}

// BenchmarkAblationXsCloneVsDeepCopy quantifies the xs_clone request
// (Fig. 4's built-in ablation) on a single warm clone.
func BenchmarkAblationXsCloneVsDeepCopy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fast := cloneOnce(b, core.Options{})
		slow := cloneOnce(b, core.Options{Cloned: cloned.Options{UseDeepCopy: true}})
		b.ReportMetric(fast.Seconds()*1e3, "xs_clone-ms")
		b.ReportMetric(slow.Seconds()*1e3, "deep-copy-ms")
	}
}

// BenchmarkAblationXenclonedCache quantifies the parent-info cache: the
// first clone (cold) versus the second (warm).
func BenchmarkAblationXenclonedCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := core.NewPlatform(core.Options{
			MemoryBytes:   1 << 30,
			SkipNameCheck: true,
		})
		rec, err := p.Boot(benchGuest("cache-parent"), nil)
		if err != nil {
			b.Fatal(err)
		}
		k, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil)
		if err != nil {
			b.Fatal(err)
		}
		cold := p.NewMeter()
		r1, err := k.Fork(1, nil, cold)
		if err != nil {
			b.Fatal(err)
		}
		warm := p.NewMeter()
		r2, err := k.Fork(1, nil, warm)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r1.Clone.SecondStage.Seconds()*1e3, "cold-2nd-stage-ms")
		b.ReportMetric(r2.Clone.SecondStage.Seconds()*1e3, "warm-2nd-stage-ms")
	}
}

// BenchmarkAblationNetRingPolicy compares copying the network rings on
// clone (the paper's policy) against handing the child fresh rings: the
// fresh policy is cheaper but loses the in-flight packets the paper's
// design preserves.
func BenchmarkAblationNetRingPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		nb := devices.NewNetBackend(devices.NewUdevQueue())
		parent := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
		parent.Deliver(netsim.Packet{SrcPort: 1, Payload: []byte("inflight")})

		copyMeter := vclock.NewMeter(nil)
		cv := parent.Clone(7, copyMeter)
		if _, ok := cv.GuestReceive(); !ok {
			b.Fatal("copy policy lost the in-flight packet")
		}
		b.ReportMetric(copyMeter.Elapsed().Seconds()*1e3, "copy-rings-ms")
		// Fresh policy: the cost floor without the per-page copies.
		b.ReportMetric((copyMeter.Elapsed()-copyMeter.Costs().PageCopy*vclock.Duration(cv.PrivatePages())).Seconds()*1e3, "fresh-rings-ms")
	}
}

// BenchmarkAblation9pfsBackend compares the shared family backend process
// (Nephele's choice) against launching one backend process per clone.
func BenchmarkAblation9pfsBackend(b *testing.B) {
	const clones = 64
	for i := 0; i < b.N; i++ {
		fs := devices.NewHostFS()
		fs.WriteFile("export/f", []byte("x"))

		// Shared process: one launch + QMP clone per child.
		shared := devices.NewNinePBackend(fs)
		sm := vclock.NewMeter(nil)
		shared.Launch(1, "/export", sm)
		if p, err := shared.Process(1); err == nil {
			p.Open(1, "/f", false)
		}
		for c := uint32(2); c < 2+clones; c++ {
			if err := shared.Clone(1, c, sm); err != nil {
				b.Fatal(err)
			}
		}
		// Per-clone processes: a full backend launch each.
		perClone := devices.NewNinePBackend(fs)
		pm := vclock.NewMeter(nil)
		perClone.Launch(1, "/export", pm)
		for c := uint32(2); c < 2+clones; c++ {
			perClone.Launch(c, "/export", pm)
		}
		b.ReportMetric(sm.Elapsed().Seconds()*1e3, "shared-ms")
		b.ReportMetric(pm.Elapsed().Seconds()*1e3, "per-clone-ms")
		b.ReportMetric(float64(shared.ProcessCount()), "shared-procs")
		b.ReportMetric(float64(perClone.ProcessCount()), "per-clone-procs")
	}
}

// BenchmarkAblationNameCheck quantifies vanilla xl's name-uniqueness scan
// (the LightVM superlinear effect the paper disables for fairness).
func BenchmarkAblationNameCheck(b *testing.B) {
	for i := 0; i < b.N; i++ {
		boot200 := func(skip bool) vclock.Duration {
			p := core.NewPlatform(core.Options{
				MemoryBytes:   2 << 30,
				SkipNameCheck: skip,
			})
			var last vclock.Duration
			for j := 0; j < 200; j++ {
				meter := p.NewMeter()
				if _, err := p.Boot(benchGuest(fmt.Sprintf("vm-%d", j)), meter); err != nil {
					b.Fatal(err)
				}
				last = meter.Elapsed()
			}
			return last
		}
		with := boot200(false)
		without := boot200(true)
		b.ReportMetric(with.Seconds()*1e3, "with-check-ms")
		b.ReportMetric(without.Seconds()*1e3, "without-check-ms")
	}
}

// BenchmarkCloneOp measures the raw CLONEOP first stage for a 4 MB guest
// (§6.1 reports ~1 ms).
func BenchmarkCloneOp(b *testing.B) {
	p := core.NewPlatform(core.Options{
		MemoryBytes:   8 << 30,
		SkipNameCheck: true,
	})
	rec, err := p.Boot(benchGuest("raw-parent"), nil)
	if err != nil {
		b.Fatal(err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var firstStage vclock.Duration
	for i := 0; i < b.N; i++ {
		res, err := k.Fork(1, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		firstStage = res.Clone.FirstStage
		// Tear the clone down so arbitrarily large b.N does not exhaust
		// the simulated machine (the virtual metric is unaffected).
		if err := p.Destroy(res.Children[0].Dom, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(firstStage.Seconds()*1e3, "first-stage-ms")
}

// BenchmarkRedisBGSave measures the end-to-end snapshot save on a
// unikernel (10k keys).
func BenchmarkRedisBGSave(b *testing.B) {
	p := core.NewPlatform(core.Options{
		MemoryBytes:   8 << 30,
		SkipNameCheck: true,
		Cloned:        cloned.Options{SkipNetworkDevices: true},
	})
	cfg := toolstack.DomainConfig{
		Name: "redis-bench", MemoryMB: 64, VCPUs: 1, MaxClones: 1 << 20,
		NinePFS: []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}},
	}
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	k, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		b.Fatal(err)
	}
	r, err := apps.NewRedis(apps.NewKernelHost(k), 4096)
	if err != nil {
		b.Fatal(err)
	}
	if err := r.MassInsert(10000, 64, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.BGSave(fmt.Sprintf("dump-%d.rdb", i), p.NewMeter())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ForkTime.Seconds()*1e3, "fork-ms")
		b.ReportMetric(res.SerializeTime.Seconds()*1e3, "save-ms")
	}
}

// cachedRestoreRig boots a template guest of memoryMB with every page
// dirtied (a warmed-up runtime leaves little of its memory pristine),
// saves it, and returns the platform plus the image. The pool is sized so
// the cache, the template image, and one restored child coexist at 256 MB.
func cachedRestoreRig(b testing.TB, memoryMB int) (*core.Platform, *toolstack.Image) {
	b.Helper()
	p := core.NewPlatform(core.Options{
		MemoryBytes:   2 << 30,
		SkipNameCheck: true,
	})
	cfg := toolstack.DomainConfig{
		Name: "cache-template", MemoryMB: memoryMB, VCPUs: 1, MaxClones: 1 << 20,
	}
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	dom, err := p.HV.Domain(rec.ID)
	if err != nil {
		b.Fatal(err)
	}
	sp := dom.Space()
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	for pfn := 0; pfn < cfg.Pages()-3; pfn++ {
		payload[0] = byte(pfn)
		if err := sp.Write(mem.PFN(pfn), 0, payload, nil); err != nil {
			b.Fatal(err)
		}
	}
	img, err := p.XL.Save(rec.ID, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := p.Destroy(rec.ID, nil); err != nil {
		b.Fatal(err)
	}
	return p, img
}

const cachedRestoreMB = 256

// TestCachedRestoreSpeedup is the snapshot cache's headline on the virtual
// clock: a warm restore of an already-seen, fully dirty 256 MB image is at
// least 5x faster than the cold restore of the same image.
func TestCachedRestoreSpeedup(t *testing.T) {
	p, img := cachedRestoreRig(t, cachedRestoreMB)
	cold := p.NewMeter()
	if _, err := p.XL.Restore(img, "cold", cold); err != nil {
		t.Fatal(err)
	}
	store := p.NewImageStore(0)
	if err := store.Insert(img, nil); err != nil {
		t.Fatal(err)
	}
	warm := p.NewMeter()
	if _, served, err := p.XL.RestoreCachedOp(obs.Ctx(warm), store, img, "warm"); err != nil {
		t.Fatal(err)
	} else if !served {
		t.Fatal("warm restore missed the cache")
	}
	c, w := cold.Elapsed().Seconds()*1e3, warm.Elapsed().Seconds()*1e3
	t.Logf("restore cold %.4g / warm %.4g virtual ms = %.1fx", c, w, c/w)
	if c < 5*w {
		t.Errorf("warm restore %.4g ms is not 5x under the cold restore's %.4g ms", w, c)
	}
}

// BenchmarkCachedRestore compares the plain restore (cold) with the
// content-addressed cached restore (warm) of the same fully dirty 256 MB
// image. The warm path materializes the child by COW-sharing the
// cache's resident frames where the cold one is charged a copy of the
// whole image; TestCachedRestoreSpeedup pins the ratio of their virtual
// restore-ms. Wall ns/op is close on both: the simulator itself installs
// pages by reference either way.
func BenchmarkCachedRestore(b *testing.B) {
	b.Run("mode=cold", func(b *testing.B) {
		p, img := cachedRestoreRig(b, cachedRestoreMB)
		b.ResetTimer()
		var lat vclock.Duration
		for i := 0; i < b.N; i++ {
			meter := p.NewMeter()
			rec, err := p.XL.Restore(img, fmt.Sprintf("cold-%d", i), meter)
			if err != nil {
				b.Fatal(err)
			}
			lat = meter.Elapsed()
			if err := p.Destroy(rec.ID, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(lat.Seconds()*1e3, "restore-ms")
	})
	b.Run("mode=warm", func(b *testing.B) {
		p, img := cachedRestoreRig(b, cachedRestoreMB)
		store := p.NewImageStore(0)
		// Populate the cache once; every timed iteration is a hit.
		if err := store.Insert(img, nil); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var lat vclock.Duration
		for i := 0; i < b.N; i++ {
			meter := p.NewMeter()
			rec, served, err := p.XL.RestoreCachedOp(obs.Ctx(meter), store, img, fmt.Sprintf("warm-%d", i))
			if err != nil {
				b.Fatal(err)
			}
			if !served {
				b.Fatal("warm iteration missed the cache")
			}
			lat = meter.Elapsed()
			if err := p.Destroy(rec.ID, nil); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(lat.Seconds()*1e3, "restore-ms")
	})
}
