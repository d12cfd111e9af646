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
// retains of the Go heap is about 25 KiB: its page table (1024 entries of
// 8 bytes, 8 KiB), the metadata of the 363 frames it does not share (24 bytes
// each, made a chunk at a time: 9 KiB), its Xenstore nodes (5.5 KiB), and
// 2.5 KiB of MFN lists and domain, device and toolstack records. The two
// tables are mem's (DESIGN.md §10, "Table layouts"); at 16 and 40 bytes an
// entry the same child was 39 KiB, so a table that quietly returns to its
// old width, or to capacity size, shows here.
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
	if per > 30<<10 {
		t.Fatalf("a clone of the Fig. 4 guest retains %d bytes of Go heap, want <= 30 KiB", per)
	}
	runtime.KeepAlive(p)
}
