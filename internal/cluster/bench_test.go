package cluster

import (
	"testing"

	"nephele/internal/core"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// BenchmarkRemoteClone measures the host-side cost of one cross-host
// clone. xfer=cold flushes the receiver's cache every iteration, so each
// transfer ships the full image and materializes by the copying restore;
// xfer=warm keeps the cache primed, so each transfer is headers-only and
// the child COW-adopts resident frames. The cold/warm ratio is the
// chunk-dedup payoff; TestRemoteCloneDedupWarm pins its ordering on the
// virtual clock.
func BenchmarkRemoteClone(b *testing.B) {
	run := func(b *testing.B, warm bool) {
		c := testCluster(2)
		h0, h1 := c.Host(0), c.Host(1)
		cfg := guestConfig("bench")
		cfg.MemoryMB = 16
		rec, err := h0.P.Boot(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		dom, err := h0.P.HV.Domain(rec.ID)
		if err != nil {
			b.Fatal(err)
		}
		// Dirty most of the guest so the image is data-run dominated and
		// the cold pass pays real copy and wire work.
		pages := cfg.Pages()
		for pfn := 0; pfn < pages-8; pfn += 2 {
			if err := dom.Space().Write(mem.PFN(pfn), 0, []byte{0x5A, byte(pfn), byte(pfn >> 8)}, nil); err != nil {
				b.Fatal(err)
			}
		}
		spec := core.CloneSpec{
			Caller: rec.ID, Parent: rec.ID, Count: 1,
			Placement: fixed{at: []int{1}},
		}
		if warm {
			res, err := h0.P.CloneOp(obs.Ctx(h0.P.NewMeter()), spec)
			if err != nil {
				b.Fatal(err)
			}
			for _, k := range res[0].Children {
				h1.P.XL.Destroy(k, nil)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := h0.P.CloneOp(obs.Ctx(h0.P.NewMeter()), spec)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, k := range res[0].Children {
				h1.P.XL.Destroy(k, nil)
			}
			if !warm {
				h1.Store.Flush()
			}
			b.StartTimer()
		}
	}
	b.Run("xfer=cold", func(b *testing.B) { run(b, false) })
	b.Run("xfer=warm", func(b *testing.B) { run(b, true) })
}
