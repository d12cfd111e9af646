package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
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

	// Scheduled variants: one round is a job list (one clone+release per
	// parent) drained by a GOMAXPROCS-sized worker pool, mirroring the hv
	// batch build pool. "fixed" drains in request order; "affinity" drains
	// the same jobs wave-packed by PlanWaves over the parents' shard
	// occupancy masks, so jobs in flight together never share a shard lock.
	// The shards dimension re-strides the same pool before measuring.
	//
	// ns/op is the wall-clock cost of executing the round against the real
	// pool (which also validates the schedule). makespan-virt-ns is the
	// modeled round makespan from SimulateRound at the same worker count —
	// a single-core host cannot exhibit real lock parallelism, the virtual
	// clocks can; TestAffinityMakespan pins its fixed/affinity ratio.
	for _, cfg := range []struct {
		parents, shards int
		sched           string
	}{
		{16, 16, "fixed"}, {16, 16, "affinity"},
		{64, 16, "fixed"}, {64, 16, "affinity"},
		{64, 32, "fixed"}, {64, 32, "affinity"},
	} {
		if testing.Short() && cfg.parents > 16 {
			continue
		}
		name := fmt.Sprintf("parents=%d-shards=%d-sched=%s", cfg.parents, cfg.shards, cfg.sched)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			spaces, masks, durs := schedRig(b, cfg.parents, cfg.shards)
			workers := runtime.GOMAXPROCS(0)
			if workers > cfg.parents {
				workers = cfg.parents
			}
			var order []int
			if cfg.sched == "affinity" {
				order, _ = PackOrder(masks, workers)
			} else {
				order = requestOrder(len(spaces))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for {
							k := int(next.Add(1)) - 1
							if k >= len(order) {
								return
							}
							p := order[k]
							child, _, err := spaces[p].CloneOp(obs.OpCtx{}, schedChildDom(p), false)
							if err != nil {
								b.Error(err)
								return
							}
							if err := child.Release(); err != nil {
								b.Error(err)
							}
						}
					}()
				}
				wg.Wait()
			}
			b.StopTimer()
			b.ReportMetric(float64(SimulateRound(order, masks, durs, workers)), "makespan-virt-ns")
		})
	}
}

func schedChildDom(p int) DomID { return DomID(10000 + p) }

func requestOrder(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// schedRig builds the scheduled round's inputs on a 12 GiB pool re-strided
// to shards: parents warm-cloned 64 MB parents, and per parent the request
// mask exactly as hv.shardMask builds it (parent occupancy plus the
// child's home shard) and the deterministic virtual duration of one probe
// clone.
func schedRig(tb testing.TB, parents, shards int) ([]*Space, []uint32, []vclock.Duration) {
	tb.Helper()
	const pages = 64 << 20 / PageSize
	m := New(12 << 30)
	if err := m.Restride(shards); err != nil {
		tb.Fatal(err)
	}
	spaces := make([]*Space, parents)
	masks := make([]uint32, parents)
	durs := make([]vclock.Duration, parents)
	for i := range spaces {
		parent, err := NewSpace(m, DomID(1+i), pages, nil)
		if err != nil {
			tb.Fatal(err)
		}
		warm, _, err := parent.CloneOp(obs.OpCtx{}, DomID(20000+i), false)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { warm.Release() })
		spaces[i] = parent
	}
	for i, s := range spaces {
		masks[i] = s.ShardOccupancy() | 1<<m.HomeShard(schedChildDom(i))
		meter := vclock.NewMeter(nil)
		probe, _, err := s.CloneOp(obs.Ctx(meter), schedChildDom(i), false)
		if err != nil {
			tb.Fatal(err)
		}
		if err := probe.Release(); err != nil {
			tb.Fatal(err)
		}
		durs[i] = meter.Elapsed()
	}
	return spaces, masks, durs
}
