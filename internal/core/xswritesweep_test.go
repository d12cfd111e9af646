package core

import (
	"testing"

	"nephele/internal/fault"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// TestXenstoreWriteSweep makes each Xenstore write of a boot and of a
// cached restore fail in turn (fault.FailNth(k) on xenstore/write), next
// to one resident guest, until a run issues all its writes and succeeds.
// After each failed run the toolstack holds no record of the guest, the
// store has the node count it had, the pool has the free frames it had and
// Memory.Audit is clean: the unwind removes what the writes before the
// failing one made and returns the half-built domain's frames.
func TestXenstoreWriteSweep(t *testing.T) {
	for _, row := range []struct {
		name  string
		setup func(t *testing.T, p *Platform) func() (*toolstack.Record, error)
	}{
		{"create", func(t *testing.T, p *Platform) func() (*toolstack.Record, error) {
			oomBoot(t, p)
			return func() (*toolstack.Record, error) { return p.XL.Create(udpServerConfig("sweep"), nil) }
		}},
		{"restore-cached", func(t *testing.T, p *Platform) func() (*toolstack.Record, error) {
			img := oomImage(t, p)
			st := p.NewImageStore(0)
			if err := st.Insert(img, nil); err != nil {
				t.Fatal(err)
			}
			return func() (*toolstack.Record, error) {
				rec, _, err := p.XL.RestoreCachedOp(obs.OpCtx{}, st, img, "sweep")
				return rec, err
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			p := smallPlatform(Options{MemoryBytes: 64 << 20, SkipNameCheck: true})
			op := row.setup(t, p)
			m := p.HV.Memory
			for k := 1; ; k++ {
				free, nodes, records := m.FreeFrames(), p.Store.NodeCount(), p.XL.Count()
				r := fault.NewRegistry()
				r.Inject(fault.PointXSWrite, fault.FailNth(k), fault.Fatal)
				p.SetFaults(r)
				rec, err := op()
				p.SetFaults(nil)
				if err == nil {
					if writes := r.Hits(fault.PointXSWrite); k != writes+1 {
						t.Fatalf("the op succeeded with write %d armed, after %d writes", k, writes)
					}
					t.Logf("%d writes, each failed in turn", k-1)
					if err := p.Destroy(rec.ID, nil); err != nil {
						t.Fatal(err)
					}
					return
				}
				if point, ok := fault.PointOf(err); !ok || point != fault.PointXSWrite {
					t.Fatalf("write %d: %v, want the injected xenstore/write fault", k, err)
				}
				if rec != nil || p.XL.Count() != records {
					t.Errorf("write %d: a record is left (%v, %d records, want %d)", k, rec, p.XL.Count(), records)
				}
				if _, err := p.XL.Lookup("sweep"); err == nil {
					t.Errorf("write %d: the name is still registered", k)
				}
				if got := p.Store.NodeCount(); got != nodes {
					t.Errorf("write %d: %d store nodes, want %d", k, got, nodes)
				}
				if got := m.FreeFrames(); got != free {
					t.Errorf("write %d: %d free frames, want %d", k, got, free)
				}
				if err := m.Audit(); err != nil {
					t.Errorf("write %d: %v", k, err)
				}
			}
		})
	}
}
