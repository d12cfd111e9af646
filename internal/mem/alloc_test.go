package mem

import (
	"runtime"
	"testing"

	"nephele/internal/obs"
)

// TestCloneReleaseAllocs pins the host cost of the fork-and-teardown cycle
// of the fuzzing and FaaS patterns: a warm re-clone of a 64 MB space with no
// trace attached, plus the child's release, allocates the child's Space and
// its two metadata frame lists and nothing else — not a run list, however
// fragmented the parent's table, not a span, and no frame list or patch
// list for the private extents, whose fresh frames go straight into the
// child's table: the "private" layout tags a written page-table, start-info,
// I/O-ring, console, Xenstore and p2m page in every 256, so the walk meets
// 384 private extents between regular ones. Before that a private extent
// cost its frame list and the patch list grew with each. Every layout costs
// 3 allocations, and the page pool, which gives the private copies their
// pages, must not add one.
func TestCloneReleaseAllocs(t *testing.T) {
	const pages = 64 << 20 / PageSize
	for _, layout := range []string{"contiguous", "fragmented", "private"} {
		t.Run(layout, func(t *testing.T) {
			if layout == "private" && raceEnabled {
				t.Skip("sync.Pool drops a quarter of its Puts under -race, and the private copies take pages from it")
			}
			m := New(4 * 64 << 20)
			parent, err := NewSpace(obs.OpCtx{}, m, 1, pages)
			if err != nil {
				t.Fatal(err)
			}
			switch layout {
			case "fragmented":
				fragmentSpace(t, parent, 2)
			case "private":
				privatizeSpace(t, parent)
			}
			allocs := testing.AllocsPerRun(50, func() {
				child, _, err := parent.CloneOp(obs.OpCtx{}, 3, true)
				if err != nil {
					t.Fatal(err)
				}
				if err := child.Release(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 3 {
				t.Fatalf("re-clone + release of a %s 64 MB space: %.0f allocs, want <= 3", layout, allocs)
			}
		})
	}
}

// privatizeSpace tags six pages in every 256 of the space with the private
// kinds, one of each, and writes each of them, so a clone copies or
// freshens them extent by extent.
func privatizeSpace(tb testing.TB, s *Space) {
	tb.Helper()
	kinds := [...]PageKind{KindPageTable, KindStartInfo, KindIORing, KindConsole, KindXenstore, KindP2M}
	for base := 0; base < s.Pages(); base += 256 {
		for i, kind := range kinds {
			pfn := PFN(base + 2*i)
			if err := s.Write(pfn, 0, []byte{byte(i + 1)}, nil); err != nil {
				tb.Fatal(err)
			}
			if err := s.SetKind(pfn, kind); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestCOWResetCycleAllocFree pins the steady state of a fuzzing campaign
// (Fig. 9): three COW faults on a cloned space — two copying a written
// page, one a partial write to a never-written page — and the clone_reset
// that undoes them allocate nothing. The private copies' pages come from the
// page pool and go back to it, and the faulting frame is taken by value.
// Before the pool the cycle cost 6 allocations and 12 312 bytes.
func TestCOWResetCycleAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	m := newTestMem(1024)
	parent := newTestSpace(t, m, 1, 64)
	for pfn := PFN(0); pfn < 2; pfn++ {
		if err := parent.Write(pfn, 0, fullPage(byte(1+pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	child, _, err := parent.CloneOp(obs.OpCtx{}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Release()
	cycle := func() {
		for pfn := PFN(0); pfn < 3; pfn++ {
			if err := child.Write(pfn, 8, []byte("8 bytes!"), nil); err != nil {
				t.Fatal(err)
			}
		}
		if n, err := child.ResetOp(obs.OpCtx{}, parent); err != nil || n != 3 {
			t.Fatalf("reset restored %d pages, err %v; want 3", n, err)
		}
	}
	cycle() // the dirty list and set reach their size
	const cycles = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / cycles
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / cycles
	if allocs != 0 || bytes >= 64 {
		t.Fatalf("COW fault + reset cycle: %d allocs, %.1f B; want 0 allocs and < 64 B", allocs, bytes)
	}
	audit(t, m)
}
