package toolstack

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// seededImage hand-builds an image exercising every run kind: zero runs,
// data runs (with scrubbed nil slots), an alias run spanning two source
// runs, and a data run covering the Xen-special top-of-memory pages so the
// cached restore's copy fallback is on the differential path too.
func seededImage(name string, seed byte) *Image {
	cfg := baseConfig(name)
	npages := cfg.Pages() // 1024 for the 4 MiB minimum
	page := func(b byte) []byte {
		return bytes.Repeat([]byte{b}, mem.PageSize)
	}
	top := npages - 3
	return &Image{
		Config: cfg,
		npages: npages,
		runs: []mem.SnapshotRun{
			{Start: 0, Count: 8}, // zero
			{Start: 8, Count: 4, Pages: [][]byte{page(seed), nil, page(seed + 1), page(seed + 2)}},
			{Start: 12, Count: 20}, // zero
			{Start: 32, Count: 2, Pages: [][]byte{page(seed + 3), page(seed + 4)}},
			// Alias covering the tail of the zero run at 12 is illegal (an
			// alias must point backward at save granularity); this one spans
			// the data run at 8 and runs into the zero run at 12.
			{Start: 40, Count: 6, Alias: 8, IsAlias: true},
			{Start: 46, Count: npages - 46 - 3}, // zero to the special pages
			{Start: mem.PFN(top), Count: 3, Pages: [][]byte{page(seed + 5), page(seed + 6), page(seed + 7)}},
		},
	}
}

// domainBytes flattens a domain's whole pseudo-physical space.
func domainBytes(t *testing.T, r *rig, id hv.DomID, npages int) []byte {
	t.Helper()
	dom, err := r.hv.Domain(id)
	if err != nil {
		t.Fatal(err)
	}
	sp := dom.Space()
	out := make([]byte, 0, npages*mem.PageSize)
	buf := make([]byte, mem.PageSize)
	for pfn := 0; pfn < npages; pfn++ {
		if err := sp.Read(mem.PFN(pfn), 0, buf); err != nil {
			t.Fatalf("pfn %d: %v", pfn, err)
		}
		out = append(out, buf...)
	}
	return out
}

// TestRestoreDifferential: cold restore, cached-miss restore and
// cached-hit restore must all materialize byte-identical children from the
// same image, and those children must hold the image's pages. The restores
// share one run walk (placeRuns), so the pages are checked against pageAt,
// which resolves each pfn on its own.
func TestRestoreDifferential(t *testing.T) {
	r := newRig(t)
	img := seededImage("diff", 0x40)
	store := NewImageStore(r.hv.Memory, 0)

	want := make([]byte, img.npages*mem.PageSize)
	for pfn := 0; pfn < img.npages; pfn++ {
		copy(want[pfn*mem.PageSize:], img.pageAt(mem.PFN(pfn)))
	}
	cold, err := r.xl.Restore(img, "diff-cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := domainBytes(t, r, cold.ID, img.npages); !bytes.Equal(got, want) {
		t.Fatal("cold restore differs from the image")
	}

	miss, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "diff-miss")
	if err != nil {
		t.Fatal(err)
	}
	if served {
		t.Fatal("first cached restore reported a hit")
	}
	if got := domainBytes(t, r, miss.ID, img.npages); !bytes.Equal(got, want) {
		t.Fatal("cached-miss restore differs from cold restore")
	}

	hit, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "diff-hit")
	if err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatal("second cached restore missed")
	}
	if got := domainBytes(t, r, hit.ID, img.npages); !bytes.Equal(got, want) {
		t.Fatal("cached-hit restore differs from cold restore")
	}

	st := store.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.AdoptedFrames == 0 {
		t.Fatal("cached restore adopted no frames")
	}
	// The special top-of-memory pages are copied, never adopted.
	if st.AdoptedFrames > int64(img.npages-3) {
		t.Fatalf("adopted %d frames of %d adoptable", st.AdoptedFrames, img.npages-3)
	}
}

// TestRestoreCachedRealSave runs the differential over a genuinely saved
// guest (Create → dirty → Save) rather than a hand-built image.
func TestRestoreCachedRealSave(t *testing.T) {
	r := newRig(t)
	rec, err := r.xl.Create(baseConfig("tpl"), nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := r.hv.Domain(rec.ID)
	sp := dom.Space()
	for pfn := 0; pfn < 64; pfn += 7 {
		sp.Write(mem.PFN(pfn), 0, bytes.Repeat([]byte{byte('a' + pfn%26)}, 128), nil)
	}
	img, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}

	store := NewImageStore(r.hv.Memory, 0)
	cold, err := r.xl.Restore(img, "tpl-cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := domainBytes(t, r, cold.ID, img.npages)
	if _, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "tpl-miss"); err != nil {
		t.Fatal(err)
	}
	hit, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "tpl-hit")
	if err != nil {
		t.Fatal(err)
	}
	if !served {
		t.Fatal("expected a cache hit")
	}
	if got := domainBytes(t, r, hit.ID, img.npages); !bytes.Equal(got, want) {
		t.Fatal("cached restore of a saved guest differs from cold restore")
	}
	// The warm child is live: writing breaks COW privately without
	// corrupting the cache, so a third restore still matches.
	hdom, _ := r.hv.Domain(hit.ID)
	if err := hdom.Space().Write(8, 0, []byte("scribble"), nil); err != nil {
		t.Fatal(err)
	}
	again, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "tpl-again")
	if err != nil {
		t.Fatal(err)
	}
	if got := domainBytes(t, r, again.ID, img.npages); !bytes.Equal(got, want) {
		t.Fatal("cache corrupted by a warm child's writes")
	}
}

// TestImageStoreDedup: two images whose data runs carry the same bytes at
// the same geometry share resident chunks.
func TestImageStoreDedup(t *testing.T) {
	r := newRig(t)
	store := NewImageStore(r.hv.Memory, 0)
	a := seededImage("a", 0x40)
	b := seededImage("b", 0x40) // same bytes, different name → same key
	c := seededImage("c", 0x80) // different bytes

	if a.CacheKey() != b.CacheKey() {
		t.Fatal("name change altered the cache key")
	}
	if a.CacheKey() == c.CacheKey() {
		t.Fatal("different contents share a cache key")
	}
	if err := store.Insert(a, nil); err != nil {
		t.Fatal(err)
	}
	st1 := store.Stats()
	if err := store.Insert(b, nil); err != nil {
		t.Fatal(err)
	}
	st2 := store.Stats()
	if st2.Images != 1 || st2.ResidentPages != st1.ResidentPages {
		t.Fatalf("identical image re-insert changed residency: %+v -> %+v", st1, st2)
	}
	if err := store.Insert(c, nil); err != nil {
		t.Fatal(err)
	}
	st3 := store.Stats()
	if st3.Images != 2 || st3.ResidentPages != 2*st1.ResidentPages {
		t.Fatalf("distinct image stats: %+v", st3)
	}
}

// TestImageStoreChunkDedupAcrossImages: images differing in one run share
// the chunks of the runs they have in common.
func TestImageStoreChunkDedupAcrossImages(t *testing.T) {
	r := newRig(t)
	store := NewImageStore(r.hv.Memory, 0)
	a := seededImage("a", 0x40)
	b := seededImage("b", 0x40)
	// Perturb only b's last data run (the special-pages run).
	last := &b.runs[len(b.runs)-1]
	last.Pages[0] = bytes.Repeat([]byte{0xEE}, mem.PageSize)

	if err := store.Insert(a, nil); err != nil {
		t.Fatal(err)
	}
	ra := store.Stats().ResidentPages
	if err := store.Insert(b, nil); err != nil {
		t.Fatal(err)
	}
	st := store.Stats()
	// Only the perturbed 3-page run is stored twice.
	if st.ResidentPages != ra+3 {
		t.Fatalf("resident = %d, want %d (shared chunks)", st.ResidentPages, ra+3)
	}
}

// TestImageStoreEviction: the resident bound evicts least-recently-used
// images first, and eviction returns their frames to the pool.
func TestImageStoreEviction(t *testing.T) {
	r := newRig(t)
	free0 := r.hv.Memory.FreeFrames()
	// Each seeded image stores 9 pages; bound the store to ~2 images.
	store := NewImageStore(r.hv.Memory, 0)
	store.maxPages = 20
	imgs := []*Image{
		seededImage("a", 0x10), seededImage("b", 0x20), seededImage("c", 0x30),
	}
	for _, img := range imgs {
		if err := store.Insert(img, nil); err != nil {
			t.Fatal(err)
		}
	}
	st := store.Stats()
	if st.Images != 2 || st.Evictions != 1 {
		t.Fatalf("stats after overflow: %+v", st)
	}
	// a was the LRU victim; b and c are resident.
	if store.Contains(imgs[0]) {
		t.Fatal("LRU image still resident")
	}
	if !store.Contains(imgs[1]) || !store.Contains(imgs[2]) {
		t.Fatal("recently used images evicted")
	}
	// Touching b then inserting d must evict c, not b.
	if store.touch(imgs[1].CacheKey()) == nil {
		t.Fatal("touch missed a resident image")
	}
	if err := store.Insert(seededImage("d", 0x50), nil); err != nil {
		t.Fatal(err)
	}
	if !store.Contains(imgs[1]) || store.Contains(imgs[2]) {
		t.Fatal("eviction ignored recency")
	}
	store.Flush()
	if st := store.Stats(); st.Images != 0 || st.ResidentPages != 0 || st.Chunks != 0 {
		t.Fatalf("flush left residue: %+v", st)
	}
	if got := r.hv.Memory.FreeFrames(); got != free0 {
		t.Fatalf("flush leaked frames: %d != %d", got, free0)
	}
}

// TestImageStoreDropKeepsSharedChunks: dropping one image must not release
// chunks another resident image still references.
func TestImageStoreDropKeepsSharedChunks(t *testing.T) {
	r := newRig(t)
	store := NewImageStore(r.hv.Memory, 0)
	a := seededImage("a", 0x40)
	b := seededImage("b", 0x40)
	b.runs[len(b.runs)-1].Pages[0] = bytes.Repeat([]byte{0xEE}, mem.PageSize)
	if err := store.Insert(a, nil); err != nil {
		t.Fatal(err)
	}
	if err := store.Insert(b, nil); err != nil {
		t.Fatal(err)
	}
	if !store.Drop(a) {
		t.Fatal("Drop missed a resident image")
	}
	// b's restore must still work off the shared chunks.
	hit, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, b, "b-child")
	if err != nil || !served {
		t.Fatalf("restore after shared drop: served=%v err=%v", served, err)
	}
	dom, _ := r.hv.Domain(hit.ID)
	buf := make([]byte, 4)
	if err := dom.Space().Read(8, 0, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x40 {
		t.Fatalf("shared chunk bytes = %x", buf)
	}
}

// TestCacheInsertFaultRollsBack: an armed toolstack/cache-insert point
// fails the population side effect without disturbing the restore, the
// store, or the frame pool.
func TestCacheInsertFaultRollsBack(t *testing.T) {
	r := newRig(t)
	store := NewImageStore(r.hv.Memory, 0)
	faults := fault.NewRegistry()
	faults.Inject(fault.PointCacheInsert, fault.FailOnce(), fault.Transient)
	store.SetFaults(faults)
	img := seededImage("f", 0x40)

	free0 := r.hv.Memory.FreeFrames()
	rec, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "f-child")
	if err != nil || served {
		t.Fatalf("restore under insert fault: served=%v err=%v", served, err)
	}
	st := store.Stats()
	if st.Images != 0 || st.ResidentPages != 0 || st.Chunks != 0 || st.InsertFailures != 1 {
		t.Fatalf("store not rolled back: %+v", st)
	}
	// The restored child holds its pages; destroying it returns the pool
	// exactly to the pre-restore level (nothing leaked by the rollback).
	if err := r.xl.Destroy(rec.ID, nil); err != nil {
		t.Fatal(err)
	}
	if got := r.hv.Memory.FreeFrames(); got != free0 {
		t.Fatalf("insert rollback leaked frames: %d != %d", got, free0)
	}
	// The point disarms after one shot: the next restore populates fine.
	if _, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "f-child2"); err != nil {
		t.Fatal(err)
	}
	if !store.Contains(img) {
		t.Fatal("store not populated after fault cleared")
	}
}

// TestCacheRestoreFaultCleanRollback: an armed toolstack/cache-restore
// point fails the warm path, destroys the half-built child, and leaves the
// store intact for the next attempt.
func TestCacheRestoreFaultCleanRollback(t *testing.T) {
	r := newRig(t)
	store := NewImageStore(r.hv.Memory, 0)
	img := seededImage("g", 0x40)
	if err := store.Insert(img, nil); err != nil {
		t.Fatal(err)
	}
	faults := fault.NewRegistry()
	faults.Inject(fault.PointCacheRestore, fault.FailOnce(), fault.Transient)
	store.SetFaults(faults)

	count0 := r.xl.Count()
	free0 := r.hv.Memory.FreeFrames()
	_, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "g-child")
	if err == nil || !served {
		t.Fatalf("armed restore: served=%v err=%v", served, err)
	}
	if r.xl.Count() != count0 {
		t.Fatalf("failed restore leaked a domain: %d != %d", r.xl.Count(), count0)
	}
	if got := r.hv.Memory.FreeFrames(); got != free0 {
		t.Fatalf("failed restore leaked frames: %d != %d", got, free0)
	}
	if !store.Contains(img) {
		t.Fatal("failed restore evicted the image")
	}
	rec, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "g-child2")
	if err != nil || !served {
		t.Fatalf("retry after fault: served=%v err=%v", served, err)
	}
	dom, _ := r.hv.Domain(rec.ID)
	buf := make([]byte, 4)
	dom.Space().Read(8, 0, buf)
	if buf[0] != 0x40 {
		t.Fatalf("retry child bytes = %x", buf)
	}
}

// TestRestoreCachedDestroyReleasesSharedFrames: destroying warm children
// drops their sharer references; flushing the store afterwards returns
// every cache frame to the pool.
func TestRestoreCachedDestroyReleasesSharedFrames(t *testing.T) {
	r := newRig(t)
	free0 := r.hv.Memory.FreeFrames()
	store := NewImageStore(r.hv.Memory, 0)
	img := seededImage("h", 0x40)
	var recs []*Record
	for i := 0; i < 3; i++ {
		rec, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, fmt.Sprintf("h-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	for _, rec := range recs {
		if err := r.xl.Destroy(rec.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	store.Flush()
	if got := r.hv.Memory.FreeFrames(); got != free0 {
		t.Fatalf("cache lifecycle leaked frames: %d != %d", got, free0)
	}
}

// TestImagePageAtBinarySearch pins the sorted-run invariants pageAt's
// binary search depends on, over a many-run image.
func TestImagePageAtBinarySearch(t *testing.T) {
	var runs []mem.SnapshotRun
	for i := 0; i < 64; i++ {
		start := mem.PFN(i * 16)
		if i%2 == 0 {
			runs = append(runs, mem.SnapshotRun{Start: start, Count: 16})
		} else {
			pages := make([][]byte, 16)
			for j := range pages {
				pages[j] = []byte{byte(i), byte(j)}
			}
			runs = append(runs, mem.SnapshotRun{Start: start, Count: 16, Pages: pages})
		}
	}
	img := &Image{npages: 1024, runs: runs}
	for i := 0; i < 64; i++ {
		for j := 0; j < 16; j++ {
			got := img.pageAt(mem.PFN(i*16 + j))
			if i%2 == 0 {
				if got != nil {
					t.Fatalf("pfn %d: zero run returned data", i*16+j)
				}
			} else if got[0] != byte(i) || got[1] != byte(j) {
				t.Fatalf("pfn %d: got %v", i*16+j, got)
			}
		}
	}
	if img.runIndexOf(2000) != -1 {
		t.Fatal("runIndexOf past the end")
	}
}

// TestCacheInsertOutOfFramesRollsBack: an Insert that needs more fresh
// frames than the pool has free returns ErrOutOfMemory and leaves the pool
// and the store as they were: the same free frames, the same Stats, no
// chunk of the refused image resident, and a clean audit. The chunks an
// earlier image made resident stay, and the same Insert succeeds once
// frames are free again.
func TestCacheInsertOutOfFramesRollsBack(t *testing.T) {
	m := mem.New(64 * mem.PageSize)
	store := NewImageStore(m, 0)
	a := seededImage("a", 0x40)
	if err := store.Insert(a, nil); err != nil {
		t.Fatal(err)
	}
	// b shares a's first two data runs and needs 3 fresh frames for its
	// last; c shares nothing and stores one 4-page run twice, which must
	// become one chunk.
	b := seededImage("b", 0x40)
	b.runs[len(b.runs)-1].Pages[0] = bytes.Repeat([]byte{0xEE}, mem.PageSize)
	run := func() [][]byte {
		return [][]byte{bytes.Repeat([]byte{0xC0}, mem.PageSize), nil, bytes.Repeat([]byte{0xC1}, mem.PageSize), bytes.Repeat([]byte{0xC2}, mem.PageSize)}
	}
	c := &Image{Config: baseConfig("c"), npages: 1024, runs: []mem.SnapshotRun{
		{Start: 0, Count: 4, Pages: run()}, {Start: 4, Count: 4}, {Start: 8, Count: 4, Pages: run()}, {Start: 12, Count: 1012},
	}}
	filler, err := m.AllocN(obs.OpCtx{}, 9, m.FreeFrames()-2)
	if err != nil {
		t.Fatal(err)
	}
	for _, img := range []*Image{b, c} {
		before, free := store.Stats(), m.FreeFrames()
		if err := store.Insert(img, nil); !errors.Is(err, mem.ErrOutOfMemory) {
			t.Fatalf("insert into %d free frames: err %v, want ErrOutOfMemory", free, err)
		}
		if got := store.Stats(); got != before {
			t.Fatalf("stats after refused insert: %+v, want %+v", got, before)
		}
		if got := m.FreeFrames(); got != free {
			t.Fatalf("free frames after refused insert: %d, want %d", got, free)
		}
		if err := m.Audit(); err != nil {
			t.Fatal(err)
		}
		if store.Contains(img) {
			t.Fatal("refused image is resident")
		}
		for i, ri := range img.RunInfos() {
			shared := i < 4 && img == b
			if ri.Kind == RunData && store.HasChunk(ri.Hash) != shared {
				t.Fatalf("run %d: chunk resident %t after refused insert, want %t", i, !shared, shared)
			}
		}
	}
	if err := m.ReleaseN(9, filler); err != nil {
		t.Fatal(err)
	}
	for _, img := range []*Image{a, b, c} {
		if err := store.Insert(img, nil); err != nil {
			t.Fatal(err)
		}
	}
	// a's 9 frames in 3 chunks, b's fresh 3 and c's one chunk of 4.
	if st := store.Stats(); st.Images != 3 || st.Chunks != 5 || st.ResidentPages != 16 {
		t.Fatalf("after freeing frames: %+v, want 3 images, 5 chunks, 16 pages", st)
	}
	store.Flush()
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
	if free := m.FreeFrames(); free != m.TotalFrames() {
		t.Fatalf("%d of %d frames free after flush", free, m.TotalFrames())
	}
}
