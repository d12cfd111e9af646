package toolstack

import (
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"nephele/internal/hv"
	"nephele/internal/mem"
)

// halfWrittenGuest boots a 16 MB guest and writes 8 bytes into half of its
// heap pages, chosen at random in blocks of block pages: the smaller the
// block, the more runs its image has.
func halfWrittenGuest(t *testing.T, r *rig, name string, block int) hv.DomID {
	t.Helper()
	cfg := baseConfig(name)
	cfg.MemoryMB = 16
	rec, err := r.xl.Create(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := spaceOf(t, r, rec.ID)
	const lo = 64 // the heap, clear of the low pages and the special ones on top
	blocks := (sp.Pages() - 2*lo) / block
	rng := rand.New(rand.NewSource(int64(block)))
	for _, b := range rng.Perm(blocks)[:blocks/2] {
		for pfn := lo + b*block; pfn < lo+(b+1)*block; pfn++ {
			if err := sp.Write(mem.PFN(pfn), 16, []byte{byte(pfn), byte(pfn >> 8), 1, 2, 3, 4, 5, 6}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	return rec.ID
}

// saveAndInsertAllocs measures, for a half-written guest in blocks of
// block pages, the allocations of one Save and of one Insert of its image
// into a store whose tables are already grown (the store is flushed before
// each Insert, as a receiver's cache is between cold requests).
func saveAndInsertAllocs(t *testing.T, block int) (runs int, save, insert float64) {
	r := newRig(t)
	id := halfWrittenGuest(t, r, "allocs", block)
	img, err := r.xl.Save(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	save = testing.AllocsPerRun(20, func() {
		if _, err := r.xl.Save(id, nil); err != nil {
			t.Fatal(err)
		}
	})
	store := NewImageStore(r.hv.Memory, 0)
	if err := store.Insert(img, nil); err != nil {
		t.Fatal(err)
	}
	insert = testing.AllocsPerRun(20, func() {
		store.Flush()
		if err := store.Insert(img, nil); err != nil {
			t.Fatal(err)
		}
	})
	store.Flush()
	return img.Runs(), save, insert
}

// TestSaveAllocs pins Save to a fixed number of allocations per image: a
// guest whose image has about 4× the runs allocates at most 2 more times,
// and neither more than 4 (the image, its run list and its page list).
// The capture sizes both lists before filling them, and indexes no frame by
// number unless dom_cow owns it.
func TestSaveAllocs(t *testing.T) {
	coarseRuns, coarse, _ := saveAndInsertAllocs(t, 4)
	fineRuns, fine, _ := saveAndInsertAllocs(t, 1)
	if fineRuns < 3*coarseRuns {
		t.Fatalf("layouts give %d and %d runs, want about 4x apart", coarseRuns, fineRuns)
	}
	t.Logf("Save: %.0f allocs for %d runs, %.0f for %d runs", coarse, coarseRuns, fine, fineRuns)
	if fine > coarse+2 || fine > 4 {
		t.Fatalf("Save: %.0f allocs for %d runs, %.0f for %d runs; want at most 2 more, and at most 4", coarse, coarseRuns, fine, fineRuns)
	}
}

// TestInsertAllocs pins ImageStore.Insert the same way: the fresh chunks sit
// in one slab, their frames come from one AllocN and go to dom_cow with one
// ShareN, so 4× the data runs cost at most 2 more allocations, and a Flush
// plus an Insert at most 8.
func TestInsertAllocs(t *testing.T) {
	coarseRuns, _, coarse := saveAndInsertAllocs(t, 4)
	fineRuns, _, fine := saveAndInsertAllocs(t, 1)
	if fineRuns < 3*coarseRuns {
		t.Fatalf("layouts give %d and %d runs, want about 4x apart", coarseRuns, fineRuns)
	}
	t.Logf("Insert: %.0f allocs for %d runs, %.0f for %d runs", coarse, coarseRuns, fine, fineRuns)
	if fine > coarse+2 || fine > 8 {
		t.Fatalf("Insert: %.0f allocs for %d runs, %.0f for %d runs; want at most 2 more, and at most 8", coarse, coarseRuns, fine, fineRuns)
	}
}

// allocBytes reports the heap bytes one call of f allocates, averaged over
// n calls.
func allocBytes(n int, f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc-before.TotalAlloc) / n
}

// TestSaveInsertAllocBytes pins the bytes, not only the counts, on the
// page-by-page half-written guest (about 2 000 runs). A Save plus CacheKey
// allocates at most 32 B per run (the run record and its content hash)
// and 8 B per stored page slot; a Flush plus Insert at most 8 B per data
// run (the cached image's chunk pointer) beyond the fresh chunk slab and
// the frame list its chunks slice. Each may take slack more for what does
// not grow with the image: the Image itself, the configuration's JSON,
// the cachedImage and the allocator's size classes.
func TestSaveInsertAllocBytes(t *testing.T) {
	const slack = 4 << 10
	r := newRig(t)
	id := halfWrittenGuest(t, r, "bytes", 1)
	img, err := r.xl.Save(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	img.CacheKey()
	data := 0
	for _, run := range img.runs {
		if run.Kind == mem.RunData {
			data++
		}
	}
	if len(img.runs) < 2000 {
		t.Fatalf("the guest's image has %d runs, want about 2 000", len(img.runs))
	}
	save := allocBytes(20, func() {
		im, err := r.xl.Save(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		im.CacheKey()
	})
	if limit := 32*len(img.runs) + 8*len(img.pages) + slack; save > limit {
		t.Errorf("Save+CacheKey of %d runs and %d page slots allocated %d B, want at most %d", len(img.runs), len(img.pages), save, limit)
	}

	store := NewImageStore(r.hv.Memory, 0)
	if err := store.Insert(img, nil); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	insert := allocBytes(20, func() {
		store.Flush()
		if err := store.Insert(img, nil); err != nil {
			t.Fatal(err)
		}
	})
	store.Flush()
	slab := st.Chunks*int(unsafe.Sizeof(imageChunk{})) + st.ResidentPages*int(unsafe.Sizeof(mem.MFN(0)))
	if limit := 8*data + slab + slack; insert > limit {
		t.Errorf("Flush+Insert of %d data runs (%d chunks, %d frames) allocated %d B, want at most %d", data, st.Chunks, st.ResidentPages, insert, limit)
	}
	t.Logf("Save+CacheKey %d B for %d runs and %d page slots; Flush+Insert %d B for %d data runs", save, len(img.runs), len(img.pages), insert, data)
}
