package mem

import (
	"fmt"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// BenchmarkSpaceClone measures the host-side cost of cloning an address
// space at several guest sizes. "first" clones a never-cloned parent, which
// transfers every regular page to dom_cow. "second" is one child's lifetime
// on an already-COW parent: the clone bumps every regular frame's sharer
// count and the release drops it again, one frame at a time in both walks.
// "fragmented" is "second" on a parent whose table fragmentSpace broke into
// one-page MFN runs, the layout a parent that writes while its children
// live ends up with: the walks must cost the same per frame on both. The
// virtual durations these operations report are pinned by the golden-series
// tests; this benchmark tracks what they cost to simulate.
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
				parent, err := NewSpace(obs.OpCtx{}, m, 1, pages)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, _, err := parent.CloneOp(obs.OpCtx{}, 2, false); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, layout := range []string{"second", "fragmented"} {
			b.Run(fmt.Sprintf("%s=%dMB", layout, mb), func(b *testing.B) {
				b.ReportAllocs()
				m := New(uint64(2*mb+64) << 20)
				parent, err := NewSpace(obs.OpCtx{}, m, 1, pages)
				if err != nil {
					b.Fatal(err)
				}
				if layout == "fragmented" {
					fragmentSpace(b, parent, 4)
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
					if err := child.Release(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkLazyClone measures the host-side cost of a lazy clone plus the
// demand-faulting of a hot set, at 1%, 10% and 100% of a 64 MB guest's
// pages. The hot-set reads demand-fault exactly as a real child's would;
// the timed section ends when the hot set is materialized, and the rest of
// the stream drains untimed. Compare against
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
				parent, err := NewSpace(obs.OpCtx{}, m, 1, pages)
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
				if err := child.Drain(obs.OpCtx{}); err != nil {
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
