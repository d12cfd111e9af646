package cluster

import (
	"errors"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// hostState is what a failed migration must leave untouched on a host.
type hostState struct {
	domains, freeFrames, storeNodes int
	vc                              []vclock.Duration
}

func stateOf(h *Host) hostState {
	return hostState{
		domains:    h.P.XL.Count(),
		freeFrames: h.P.HV.Memory.FreeFrames(),
		storeNodes: h.P.Store.NodeCount(),
		vc:         h.VC.Snapshot(),
	}
}

func (s hostState) equal(o hostState) bool {
	return s.domains == o.domains && s.freeFrames == o.freeFrames &&
		s.storeNodes == o.storeNodes && vclock.Compare(s.vc, o.vc) == vclock.Equal
}

// TestMigrateFaultMatrix arms each cluster fault point during a migration:
// the move fails with that point's error, the source is unpaused and still
// runs, nothing exists on the target, and frames, Xenstore nodes and vector
// clocks of both hosts are where they were. The same migration succeeds once
// the fault clears.
func TestMigrateFaultMatrix(t *testing.T) {
	for _, point := range fault.ClusterPoints() {
		t.Run(point, func(t *testing.T) {
			c := testCluster(2)
			h0, h1 := c.Host(0), c.Host(1)
			rec := bootParent(t, h0, "mover")
			before0, before1 := stateOf(h0), stateOf(h1)

			reg := fault.NewRegistry()
			reg.Inject(point, fault.FailOnce(), fault.Fatal)
			c.SetFaults(reg)

			_, err := c.Migrate(obs.OpCtx{}, 0, rec.ID, 1, "")
			var ferr *fault.Error
			if !errors.As(err, &ferr) || ferr.Point != point {
				t.Fatalf("migrate with %s armed: %v", point, err)
			}
			dom, err := h0.P.HV.Domain(rec.ID)
			if err != nil {
				t.Fatalf("source lost after %s: %v", point, err)
			}
			if dom.Paused() {
				t.Fatalf("source left paused after %s", point)
			}
			if got := readState(t, h0.P, rec.ID, 7, len("state@mover")); got != "state@mover" {
				t.Fatalf("source state after %s = %q", point, got)
			}
			if got := stateOf(h0); !got.equal(before0) {
				t.Fatalf("source host after %s = %+v, want %+v", point, got, before0)
			}
			if got := stateOf(h1); !got.equal(before1) {
				t.Fatalf("target host after %s = %+v, want %+v", point, got, before1)
			}
			if err := dom.Space().Write(9, 0, []byte("still running"), nil); err != nil {
				t.Fatalf("source not runnable after %s: %v", point, err)
			}

			reg.Reset()
			res, err := c.Migrate(obs.OpCtx{}, 0, rec.ID, 1, "")
			if err != nil {
				t.Fatalf("migrate after clearing %s: %v", point, err)
			}
			if got := readState(t, h1.P, res.Children[0], 9, len("still running")); got != "still running" {
				t.Fatalf("migrated state = %q", got)
			}
			if h0.P.XL.Count() != 0 || h1.P.XL.Count() != 1 {
				t.Fatalf("instances = %d/%d, want 0/1", h0.P.XL.Count(), h1.P.XL.Count())
			}
			if v0, v1 := h0.VC.Snapshot(), h1.VC.Snapshot(); v0[0] <= 0 || v1[1] <= 0 || v1[0] != v0[0] {
				t.Fatalf("vector clocks after a migration: source %v, target %v", v0, v1)
			}
		})
	}
}

// TestMigrateDedupsAgainstEarlierArrival migrates two guests holding the
// same data to one host: the second ships a header for every chunk the
// first left in the receiver's cache and pages only for what differs.
func TestMigrateDedupsAgainstEarlierArrival(t *testing.T) {
	c := testCluster(2)
	h0 := c.Host(0)
	boot := func(name string) *mem.Space {
		rec, err := h0.P.Boot(guestConfig(name), nil)
		if err != nil {
			t.Fatal(err)
		}
		dom, _ := h0.P.HV.Domain(rec.ID)
		for _, pfn := range []mem.PFN{3, 7, 100, 512} {
			if err := dom.Space().Write(pfn, 0, []byte("common working set"), nil); err != nil {
				t.Fatal(err)
			}
		}
		return dom.Space()
	}
	first, second := boot("first"), boot("second")
	const differing = 2
	for i := 0; i < differing; i++ {
		if err := second.Write(mem.PFN(200+10*i), 0, []byte("only the second has this"), nil); err != nil {
			t.Fatal(err)
		}
	}
	dedup := c.Metrics().Counter("cluster.dedup_pages")

	res1, err := c.Migrate(obs.OpCtx{}, 0, first.Dom(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	shared := res1.TransferBytes / mem.PageSize
	if shared <= 0 || dedup.Value() != 0 {
		t.Fatalf("first arrival: %d pages on the wire, %d deduped", shared, dedup.Value())
	}

	res2, err := c.Migrate(obs.OpCtx{}, 0, second.Dom(), 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if got := dedup.Value(); got != shared {
		t.Fatalf("cluster.dedup_pages = %d, want the %d pages the first arrival left", got, shared)
	}
	if res2.TransferBytes != differing*mem.PageSize {
		t.Fatalf("second arrival moved %d bytes, want the %d differing pages", res2.TransferBytes, differing)
	}
	if res2.TransferBytes >= res1.TransferBytes {
		t.Fatalf("second arrival (%d bytes) not below the first (%d)", res2.TransferBytes, res1.TransferBytes)
	}
}
