package cloned

import (
	"fmt"
	"testing"

	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// BenchmarkServeAll measures the daemon's second stage — Xenstore writes,
// device backend clones, unpause — for one CLONEOP batch of n children.
// The first stage runs outside the timer, so this isolates what Serve's
// worker pool actually overlaps. Virtual-time output is pinned by the
// golden-series and fault-matrix tests.
func BenchmarkServeAll(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		if testing.Short() && n > 16 {
			continue
		}
		b.Run(fmt.Sprintf("children=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			r := newFaultRig(b, Options{})
			rec, err := r.xl.Create(toolstack.DomainConfig{
				Name:      "bench-parent",
				MemoryMB:  4,
				VCPUs:     1,
				MaxClones: 1 << 20,
				Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, n, vclock.NewMeter(nil))
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				<-done
				for _, k := range kids {
					if err := r.xl.Destroy(k, nil); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
		})
	}

	// A batch from a single parent serves sequentially (ordering); mixed
	// batches from several parents are what the worker pool overlaps.
	b.Run("parents=4-children=4each", func(b *testing.B) {
		b.ReportAllocs()
		r := newFaultRig(b, Options{})
		recs := make([]*toolstack.Record, 4)
		for i := range recs {
			rec, err := r.xl.Create(toolstack.DomainConfig{
				Name:      fmt.Sprintf("bench-parent-%d", i),
				MemoryMB:  4,
				VCPUs:     1,
				MaxClones: 1 << 20,
				Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, byte(2 + i)}}},
			}, nil)
			if err != nil {
				b.Fatal(err)
			}
			recs[i] = rec
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			var kids []hv.DomID
			var dones []<-chan struct{}
			for _, rec := range recs {
				k, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 4, vclock.NewMeter(nil))
				if err != nil {
					b.Fatal(err)
				}
				kids = append(kids, k...)
				dones = append(dones, done)
			}
			b.StartTimer()
			if _, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			for _, done := range dones {
				<-done
			}
			for _, k := range kids {
				if err := r.xl.Destroy(k, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
		}
	})
}
