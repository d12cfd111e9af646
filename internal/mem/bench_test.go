package mem

import (
	"fmt"
	"sync"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// BenchmarkSpaceClone measures the host-side cost of cloning an address
// space at several guest sizes. "first" clones a never-cloned parent, which
// transfers every regular page to dom_cow; "second" re-clones an
// already-COW parent, the O(extents) sharer-bump fast path. The virtual
// durations these operations report are pinned by the golden-series tests;
// this benchmark tracks what they cost to simulate.
func BenchmarkSpaceClone(b *testing.B) {
	for _, mb := range []int{4, 64, 1024} {
		if testing.Short() && mb > 64 {
			continue
		}
		pages := mb << 20 / PageSize
		b.Run(fmt.Sprintf("first=%dMB", mb), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := New(uint64(2*mb+64) << 20)
				parent, err := NewSpace(m, 1, pages, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := parent.CloneOp(obs.OpCtx{}, 2, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("second=%dMB", mb), func(b *testing.B) {
			b.ReportAllocs()
			m := New(uint64(2*mb+64) << 20)
			parent, err := NewSpace(m, 1, pages, nil)
			if err != nil {
				b.Fatal(err)
			}
			warm, _, err := parent.CloneOp(obs.OpCtx{}, 2, false)
			if err != nil {
				b.Fatal(err)
			}
			defer warm.Release()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				child, _, err := parent.CloneOp(obs.OpCtx{}, 3, false)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := child.Release(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// fragmentSpace COW-faults every other page of parent against a throwaway
// clone, leaving its table the worst case for the batched frame operations:
// alternate entries moved to fresh frames, so no two neighbouring entries
// are MFN-contiguous and every run is one page long.
func fragmentSpace(tb testing.TB, parent *Space, scratchDom DomID) {
	tb.Helper()
	warm, _, err := parent.CloneOp(obs.OpCtx{}, scratchDom, false)
	if err != nil {
		tb.Fatal(err)
	}
	for pfn := 0; pfn < parent.Pages(); pfn += 2 {
		if err := parent.TouchCOW(PFN(pfn), nil); err != nil {
			tb.Fatal(err)
		}
	}
	if err := warm.Release(); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkSpaceChurn measures one clone plus the child's release of a
// 64 MB space — the fork-and-teardown cycle of the fuzzing and FaaS
// patterns — over a contiguous table and over one fragmentSpace left in
// one-page runs, which is what a parent that kept running after earlier
// clones looks like. allocs/op is the gated number: both layouts must
// stay at the handful of allocations the child's Space itself costs.
func BenchmarkSpaceChurn(b *testing.B) {
	const mb = 64
	pages := mb << 20 / PageSize
	for _, layout := range []string{"contiguous", "fragmented"} {
		b.Run(layout, func(b *testing.B) {
			b.ReportAllocs()
			m := New(uint64(4*mb) << 20)
			parent, err := NewSpace(m, 1, pages, nil)
			if err != nil {
				b.Fatal(err)
			}
			if layout == "fragmented" {
				fragmentSpace(b, parent, 2)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				child, _, err := parent.CloneOp(obs.OpCtx{}, 3, false)
				if err != nil {
					b.Fatal(err)
				}
				if err := child.Release(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLazyClone measures the host-side cost of a lazy clone plus the
// demand-faulting of a hot set, at 1%, 10% and 100% of a 64 MB guest's
// pages. The hot-set reads race the background streamer exactly as a real
// child would; the timed section ends when the hot set is materialized,
// and the remaining stream drains untimed. Compare against
// BenchmarkSpaceClone/first=64MB, which is the eager cost the 100% sweep
// should approach.
func BenchmarkLazyClone(b *testing.B) {
	const mb = 64
	pages := mb << 20 / PageSize
	for _, hotPct := range []int{1, 10, 100} {
		hot := pages * hotPct / 100
		stride := pages / hot
		b.Run(fmt.Sprintf("hot=%d", hotPct), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := New(uint64(2*mb+64) << 20)
				parent, err := NewSpace(m, 1, pages, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				child, _, err := parent.CloneOpMode(obs.Ctx(vclock.NewMeter(nil)), 2, false, CloneLazy)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < hot; j++ {
					if err := child.Read(PFN(j*stride), 0, buf); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if _, _, err := child.WaitLazy(); err != nil {
					b.Fatal(err)
				}
				if err := child.Release(); err != nil {
					b.Fatal(err)
				}
				if err := parent.Release(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkMultiParentClone measures clone throughput when several
// independent parents clone concurrently against one machine pool — the
// FaaS/NGINX autoscaling scenario (§7). Each iteration is one round: every
// parent clones one child (the already-COW fast path) and releases it, all
// rounds racing on the shared pool. With the single-mutex pool every
// parent serializes on Memory.mu; the sharded pool gives each parent's
// frame range its own lock, so ns/op should stay flat as parents grow.
//
// The pool is host-sized (12 GiB; frame metadata is lazy, so the unused
// range costs nothing) — that is what makes the shard stride large enough
// for a 64 MB guest to sit inside one shard, exactly as on a real host.
// Parent domain IDs map to distinct home shards and child IDs to shards
// disjoint from every parent's, mirroring how sequential hv domain IDs
// spread across the pool.
func BenchmarkMultiParentClone(b *testing.B) {
	const mb = 64
	pages := mb << 20 / PageSize
	for _, parents := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parents=%d", parents), func(b *testing.B) {
			b.ReportAllocs()
			m := New(12 << 30)
			nsh := m.Shards()
			childDom := func(p int) DomID {
				return DomID(700*nsh + (1+parents+p)%nsh)
			}
			spaces := make([]*Space, parents)
			for i := range spaces {
				parent, err := NewSpace(m, DomID(1+i), pages, nil)
				if err != nil {
					b.Fatal(err)
				}
				// Warm clone: every regular page moves to dom_cow so the
				// timed rounds all take the sharer-bump fast path.
				warm, _, err := parent.CloneOp(obs.OpCtx{}, DomID(600*nsh+(1+parents+i)%nsh), false)
				if err != nil {
					b.Fatal(err)
				}
				defer warm.Release()
				spaces[i] = parent
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for p := range spaces {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						child, _, err := spaces[p].CloneOp(obs.OpCtx{}, childDom(p), false)
						if err != nil {
							b.Error(err)
							return
						}
						if err := child.Release(); err != nil {
							b.Error(err)
						}
					}(p)
				}
				wg.Wait()
			}
		})
	}
}
