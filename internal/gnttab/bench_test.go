package gnttab

import (
	"fmt"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
)

// BenchmarkGrantClone measures replicating a parent's grant table into a
// fresh child at several table sizes, the per-child gnttab work of a
// CLONEOP (the virtual cost, GrantEntryClone per active entry, is pinned
// by the golden-series tests).
func BenchmarkGrantClone(b *testing.B) {
	for _, size := range []int{16, 64, 1024} {
		if testing.Short() && size > 64 {
			continue
		}
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			s := New(size)
			parent := mem.DomID(1)
			s.AddDomain(parent)
			for i := 0; i < size; i++ {
				grantee := mem.DomID(2)
				flags := FlagReadOnly
				if i%4 == 0 {
					grantee = mem.DomIDChild
					flags |= FlagIDC
				}
				if _, err := s.Grant(parent, grantee, mem.MFN(100+i), flags); err != nil {
					b.Fatal(err)
				}
			}
			xlate := func(m mem.MFN) mem.MFN { return m + 1000 }
			child := mem.DomID(3)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.AddDomain(child)
				if _, err := s.CloneDomain(obs.OpCtx{}, parent, child, xlate); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				s.RemoveDomain(child)
				b.StartTimer()
			}
		})
	}
}
