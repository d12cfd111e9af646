package core_test

import (
	"runtime"
	"testing"

	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// TestCloneHostFootprint guards the simulator's own residue per clone: the
// Fig. 4 guest (4 MB Mini-OS, one vif) binds no event channel and grants
// nothing its children inherit, and their rings are empty, so what a child
// retains of the Go heap is its page table, its private frames' metadata
// and its Xenstore and device entries — about 40 KiB. Port, grant, ring and
// frame tables sized to their limits made that 118 KiB; a table that
// quietly returns to capacity size shows here.
func TestCloneHostFootprint(t *testing.T) {
	const children = 512
	p := core.NewPlatform(core.Options{SkipNameCheck: true})
	rec, err := p.Boot(toolstack.DomainConfig{
		Name: "parent", MemoryMB: 4, VCPUs: 1, MaxClones: 1 << 20,
		Vifs: []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil); err != nil {
		t.Fatal(err)
	}
	spec := core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1}
	clone := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := p.CloneOp(obs.OpCtx{}, spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	clone(8) // first-clone set-up (sharing the parent, caches) is not per child
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	clone(children)
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / children
	t.Logf("%d clones retain %d bytes of Go heap each", children, per)
	if per > 56<<10 {
		t.Fatalf("a clone of the Fig. 4 guest retains %d bytes of Go heap, want <= 56 KiB", per)
	}
	runtime.KeepAlive(p)
}
