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
		runs: []imageRun{
			{start: 0, count: 8}, // zero
			{start: 8, count: 4, pages: [][]byte{page(seed), nil, page(seed + 1), page(seed + 2)}},
			{start: 12, count: 20}, // zero
			{start: 32, count: 2, pages: [][]byte{page(seed + 3), page(seed + 4)}},
			// Alias covering the tail of the zero run at 12 is illegal (an
			// alias must point backward at save granularity); this one spans
			// the data run at 8 and runs into the zero run at 12.
			{start: 40, count: 6, alias: 8, isAlias: true},
			{start: 46, count: npages - 46 - 3}, // zero to the special pages
			{start: mem.PFN(top), count: 3, pages: [][]byte{page(seed + 5), page(seed + 6), page(seed + 7)}},
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

// TestRestoreDifferential: cold restore, cached-miss restore, cached-hit
// restore and serialize→deserialize→restore must all materialize
// byte-identical children from the same image.
func TestRestoreDifferential(t *testing.T) {
	r := newRig(t)
	img := seededImage("diff", 0x40)
	store := NewImageStore(r.hv.Memory, 0)

	cold, err := r.xl.Restore(img, "diff-cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	want := domainBytes(t, r, cold.ID, img.npages)

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

	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	img2, err := ReadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if img2.CacheKey() != img.CacheKey() {
		t.Fatal("serialized image changed its cache key")
	}
	ser, err := r.xl.Restore(img2, "diff-ser", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := domainBytes(t, r, ser.ID, img.npages); !bytes.Equal(got, want) {
		t.Fatal("serialized restore differs from cold restore")
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
	last.pages[0] = bytes.Repeat([]byte{0xEE}, mem.PageSize)

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
	b.runs[len(b.runs)-1].pages[0] = bytes.Repeat([]byte{0xEE}, mem.PageSize)
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

// TestImageIOCorruptionRejected: a flipped byte in a data page fails the
// run's content hash on load.
func TestImageIOCorruptionRejected(t *testing.T) {
	img := seededImage("x", 0x40)
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadImage(bytes.NewReader(raw)); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	// Flip one byte in the back half (inside page data, past the header).
	bad := append([]byte(nil), raw...)
	bad[len(bad)-100] ^= 0xff
	if _, err := ReadImage(bytes.NewReader(bad)); !errors.Is(err, ErrBadImage) {
		t.Fatalf("corrupted stream: %v", err)
	}
	// Truncation is rejected too.
	if _, err := ReadImage(bytes.NewReader(raw[:len(raw)/2])); !errors.Is(err, ErrBadImage) {
		t.Fatalf("truncated stream: %v", err)
	}
	// Bad magic.
	bad2 := append([]byte(nil), raw...)
	bad2[0] = 'X'
	if _, err := ReadImage(bytes.NewReader(bad2)); !errors.Is(err, ErrBadImage) {
		t.Fatalf("bad magic: %v", err)
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
	var runs []imageRun
	for i := 0; i < 64; i++ {
		start := mem.PFN(i * 16)
		if i%2 == 0 {
			runs = append(runs, imageRun{start: start, count: 16})
		} else {
			pages := make([][]byte, 16)
			for j := range pages {
				pages[j] = []byte{byte(i), byte(j)}
			}
			runs = append(runs, imageRun{start: start, count: 16, pages: pages})
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
