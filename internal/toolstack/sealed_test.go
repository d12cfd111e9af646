package toolstack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// imageBytes copies every run's geometry and every byte an image stores
// into a fresh slice. It must copy: a slice that referenced the stored
// pages would change along with them, so a before/after comparison could
// never see a write that reached the image.
func imageBytes(img *Image) []byte {
	out := binary.LittleEndian.AppendUint64(nil, uint64(img.npages))
	for i, r := range img.runs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Start))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Count))
		switch r.Kind {
		case mem.RunAlias:
			out = append(out, 'a')
			out = binary.LittleEndian.AppendUint64(out, uint64(r.Alias))
		case mem.RunZero:
			out = append(out, 'z')
		default:
			out = append(out, 'd')
			for _, p := range img.runPages(i) {
				if p == nil {
					out = append(out, 0)
					continue
				}
				out = append(append(out, 1), p[:]...)
			}
		}
	}
	return out
}

func spaceOf(t *testing.T, r *rig, id hv.DomID) *mem.Space {
	t.Helper()
	dom, err := r.hv.Domain(id)
	if err != nil {
		t.Fatal(err)
	}
	return dom.Space()
}

// dirtiedParent creates a guest with written regular pages (one of them
// all zeroes, so the image has a scrubbed slot) and written special pages.
func dirtiedParent(t *testing.T, r *rig, name string) (hv.DomID, *mem.Space) {
	t.Helper()
	rec, err := r.xl.Create(baseConfig(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := spaceOf(t, r, rec.ID)
	n := sp.Pages()
	for _, pfn := range []int{4, 5, 6, 9, 40, n - 3, n - 2, n - 1} {
		if err := sp.Write(mem.PFN(pfn), 0, bytes.Repeat([]byte{byte(pfn)}, mem.PageSize), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sp.Write(7, 0, make([]byte, mem.PageSize), nil); err != nil {
		t.Fatal(err)
	}
	return rec.ID, sp
}

// scribble makes the writes a guest makes: a whole page and 8 bytes into
// regular pages the image stores, 8 bytes into one it does not, and both
// kinds into the special pages at the top of memory.
func scribble(t *testing.T, sp *mem.Space, tag byte) {
	t.Helper()
	n := sp.Pages()
	whole := bytes.Repeat([]byte{tag}, mem.PageSize)
	eight := []byte{tag, 1, 2, 3, 4, 5, 6, 7}
	for _, w := range []struct {
		pfn, off int
		buf      []byte
	}{
		{4, 0, whole}, {5, 24, eight}, {7, 8, eight}, {100, 0, eight},
		{n - 1, 0, whole}, {n - 2, 64, eight},
	} {
		if err := sp.Write(mem.PFN(w.pfn), w.off, w.buf, nil); err != nil {
			t.Fatalf("write pfn %d: %v", w.pfn, err)
		}
	}
}

// TestSaveIsolatedFromParentWrites: the image holds the parent's own
// pages, so whatever the parent writes after Save must go elsewhere.
func TestSaveIsolatedFromParentWrites(t *testing.T) {
	r := newRig(t)
	id, sp := dirtiedParent(t, r, "iso-parent")
	img, err := r.xl.Save(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := imageBytes(img)
	scribble(t, sp, 0xEE)
	if !bytes.Equal(imageBytes(img), before) {
		t.Fatal("parent writes after Save changed the image")
	}
	after, err := r.xl.Save(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheKey() == img.CacheKey() {
		t.Fatal("a save after writes has the key of the save before them")
	}
	if !bytes.Equal(imageBytes(img), before) {
		t.Fatal("a later Save changed the earlier image")
	}
}

// TestRestoredChildrenIsolated: children made from one image by the cold,
// cached-miss and cached-hit paths hold the image's pages (and the cache's
// frames) by reference; the writes of any one of them must leave the
// image, the cache, every sibling and the parent as they were.
func TestRestoredChildrenIsolated(t *testing.T) {
	r := newRig(t)
	pid, _ := dirtiedParent(t, r, "iso-tpl")
	img, err := r.xl.Save(pid, nil)
	if err != nil {
		t.Fatal(err)
	}
	store := NewImageStore(r.hv.Memory, 0)
	n := img.Pages()
	before := imageBytes(img)
	parentWant := domainBytes(t, r, pid, n)

	kids := make(map[string]hv.DomID)
	cold, err := r.xl.Restore(img, "iso-cold", nil)
	if err != nil {
		t.Fatal(err)
	}
	kids["cold"] = cold.ID
	for _, name := range []string{"miss", "hit-a", "hit-b"} {
		rec, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "iso-"+name)
		if err != nil {
			t.Fatal(err)
		}
		if served != (name != "miss") {
			t.Fatalf("%s: served from cache = %v", name, served)
		}
		kids[name] = rec.ID
	}
	want := domainBytes(t, r, kids["cold"], n)
	if !bytes.Equal(want, parentWant) {
		t.Fatal("cold restore differs from the saved parent")
	}

	unwritten := map[string]bool{"cold": true, "miss": true, "hit-a": true, "hit-b": true}
	for i, writer := range []string{"cold", "miss", "hit-a", "hit-b"} {
		scribble(t, spaceOf(t, r, kids[writer]), byte(0xD0+i))
		delete(unwritten, writer)
		if !bytes.Equal(imageBytes(img), before) {
			t.Fatalf("writes of the %s child changed the image", writer)
		}
		if !bytes.Equal(domainBytes(t, r, pid, n), parentWant) {
			t.Fatalf("writes of the %s child changed the parent", writer)
		}
		for sib := range unwritten {
			if !bytes.Equal(domainBytes(t, r, kids[sib], n), want) {
				t.Fatalf("writes of the %s child changed its sibling %s", writer, sib)
			}
		}
		fresh, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, fmt.Sprintf("iso-fresh-%d", i))
		if err != nil || !served {
			t.Fatalf("restore after the %s child's writes: served %v, err %v", writer, served, err)
		}
		if !bytes.Equal(domainBytes(t, r, fresh.ID, n), want) {
			t.Fatalf("writes of the %s child changed the cache's chunks", writer)
		}
		if err := r.xl.Destroy(fresh.ID, nil); err != nil {
			t.Fatal(err)
		}
	}

	// And the other way round: the parent's writes reach no child.
	scribble(t, spaceOf(t, r, pid), 0x77)
	last, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "iso-last")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(domainBytes(t, r, last.ID, n), want) {
		t.Fatal("parent writes after Save reached a later restore")
	}
}

// TestStoredPageOfWrongLengthRefused: an image's pages are typed one frame
// long, so a stored page of any other length cannot be put in one; what a
// restore can still be handed is a stored page where the guest has none. A
// hand-built image whose last data run lies past the guest's pages is
// refused by the cold restore and the cached-miss restore with an error
// wrapping mem.ErrBadPFN, and each leaves the domains, the free frames and
// the store's stats as they were (a cached restore counts its miss).
func TestStoredPageOfWrongLengthRefused(t *testing.T) {
	cfg := baseConfig("bad-page")
	n := cfg.Pages()
	img := imageOf(cfg, n,
		zeroRun(0, 8),
		dataRun(8, filled(0x3C), filled(0x3C), nil),
		zeroRun(11, n-11),
		dataRun(n, filled(0x3C), nil),
	)
	r := newRig(t)
	store := NewImageStore(r.hv.Memory, 0)
	doms, free, stats := r.hv.DomainCount(), r.hv.Memory.FreeFrames(), store.Stats()
	unchanged := func(path string, misses int64) {
		t.Helper()
		if got := r.hv.DomainCount(); got != doms {
			t.Fatalf("%s: %d domains, want %d", path, got, doms)
		}
		if got := r.hv.Memory.FreeFrames(); got != free {
			t.Fatalf("%s: %d free frames, want %d", path, got, free)
		}
		want := stats
		want.Misses += misses
		if got := store.Stats(); got != want {
			t.Fatalf("%s: stats %+v, want %+v", path, got, want)
		}
	}

	if _, err := r.xl.Restore(img, "bad-cold", nil); !errors.Is(err, mem.ErrBadPFN) {
		t.Fatalf("cold restore: %v, want ErrBadPFN", err)
	}
	unchanged("cold restore", 0)
	if _, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "bad-miss"); !errors.Is(err, mem.ErrBadPFN) {
		t.Fatalf("cached-miss restore: %v, want ErrBadPFN", err)
	}
	unchanged("cached-miss restore", 1)
}

// TestHashInheritanceMatchesFreshHash: over 200 seeded rounds of guest
// writes that extend and merge data runs, split them (a page made a
// never-written frame again), rewrite pages and scrub them to zeroes, an image
// that takes hashes over from its predecessor has exactly the run hashes,
// run infos and key of the same runs hashed from scratch. One round in four
// goes unhashed, so inheritance also reaches over skipped images.
func TestHashInheritanceMatchesFreshHash(t *testing.T) {
	r := newRig(t)
	rec, err := r.xl.Create(baseConfig("inherit"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := spaceOf(t, r, rec.ID)
	n := sp.Pages() - 3
	rng := rand.New(rand.NewSource(14))
	inherited := 0
	unwritten, err := r.hv.Memory.AllocN(obs.OpCtx{}, sp.Dom(), 1) // copying it makes a page unwritten again
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 200; round++ {
		for k := rng.Intn(6); k > 0; k-- {
			pfn := mem.PFN(rng.Intn(64)) // a small window, so runs meet
			switch rng.Intn(5) {
			case 0:
				err = sp.Write(pfn, 0, bytes.Repeat([]byte{byte(rng.Intn(255) + 1)}, mem.PageSize), nil)
			case 1:
				err = sp.Write(pfn, rng.Intn(500)*8, []byte{byte(round), 1, 2, 3, 4, 5, 6, 7}, nil)
			case 2:
				err = sp.Write(pfn, 0, make([]byte, mem.PageSize), nil) // scrubbed to a nil slot
			case 3:
				var mfn mem.MFN
				if mfn, err = sp.MFNOf(pfn); err == nil {
					err = r.hv.Memory.CopyFrameN(obs.OpCtx{}, []mem.MFN{mfn}, unwritten) // reads as zeroes again: splits a run
				}
			case 4:
				err = sp.Write(mem.PFN(64+rng.Intn(n-64)), 0, []byte{byte(round + 1)}, nil)
			}
			if err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
		img, err := r.xl.Save(rec.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if round%4 == 3 {
			continue
		}
		prev := img.prev
		fresh := &Image{Config: img.Config, npages: img.npages, runs: img.runs, pages: img.pages}
		if img.CacheKey() != fresh.CacheKey() {
			t.Fatalf("round %d: key with inheritance %#x, hashed afresh %#x", round, img.CacheKey(), fresh.CacheKey())
		}
		if !slices.Equal(img.hashes, fresh.hashes) {
			t.Fatalf("round %d: run hashes with inheritance differ from a fresh hash", round)
		}
		for i, run := range img.runs {
			if run.Kind == mem.RunData {
				if got, want := img.hashes[i], hashRun(img.runPages(i)); got != want {
					t.Fatalf("round %d: run at %d hash %#x, hashRun %#x", round, run.Start, got, want)
				}
				cursor := 0
				if _, same := prev.sameRunHash(&cursor, run.Start, img.runPages(i)); same {
					inherited++
				}
			}
		}
	}
	if inherited == 0 {
		t.Fatal("no run ever took its hash over: the rounds exercised nothing")
	}
}

// TestResaveHashesOnlyChangedRuns: a second Save of a 16 MB domain, half
// of it written, copies no page and hashes only the run that changed. The
// first image's stored hashes are falsified after the fact, so a hash that
// was taken over shows the false value and one that was computed does not.
func TestResaveHashesOnlyChangedRuns(t *testing.T) {
	r := newRig(t)
	cfg := baseConfig("resave")
	cfg.MemoryMB = 16
	rec, err := r.xl.Create(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := spaceOf(t, r, rec.ID)
	// Two data runs of 1024 pages each, a gap between them.
	for _, base := range []int{0, 2048} {
		for pfn := base; pfn < base+1024; pfn++ {
			if err := sp.Write(mem.PFN(pfn), 0, []byte{1, byte(pfn), byte(pfn >> 8)}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	first, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	key := first.CacheKey()

	// Unchanged: same key, and the whole second Save+CacheKey allocates a
	// small fraction of the 8 MB the image stores — page lists and run
	// tables, no page.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	key2 := second.CacheKey()
	runtime.ReadMemStats(&after)
	if key2 != key {
		t.Fatalf("unchanged domain saved under key %#x, then %#x", key, key2)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 512<<10 {
		t.Fatalf("second Save+CacheKey of an unchanged domain allocated %d KiB", got>>10)
	}

	var data []int
	for i, run := range second.runs {
		if run.Kind == mem.RunData && run.Count == 1024 {
			data = append(data, i)
		}
	}
	if len(data) != 2 {
		t.Fatalf("expected the two 1024-page data runs, found %d", len(data))
	}
	const lie = 0x0BADC0DE
	for _, i := range data {
		second.hashes[i] ^= lie
	}
	if err := sp.Write(2048+17, 8, []byte("8 bytes!"), nil); err != nil {
		t.Fatal(err)
	}
	third, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	third.CacheKey()
	if got, want := third.hashes[data[0]], second.hashes[data[0]]; got != want {
		t.Fatal("the untouched run was hashed again instead of taking its stored hash over")
	}
	if got, want := third.hashes[data[1]], hashRun(third.runPages(data[1])); got != want {
		t.Fatal("the written run took a stale hash over")
	}
}

// TestSaveRetainsOnePreviousImage: however many saves go unhashed, the
// toolstack reaches the latest image and at most one hashed predecessor;
// hashing lets the predecessor go; Destroy lets everything go.
func TestSaveRetainsOnePreviousImage(t *testing.T) {
	r := newRig(t)
	rec, err := r.xl.Create(baseConfig("retain"), nil)
	if err != nil {
		t.Fatal(err)
	}
	sp := spaceOf(t, r, rec.ID)
	latest := func() *Image {
		return r.xl.lastSave[rec.ID]
	}
	// Never hashed: nothing to inherit from, nothing kept but the latest.
	for i := 0; i < 10; i++ {
		img, err := r.xl.Save(rec.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if latest() != img || img.prev != nil {
			t.Fatalf("save %d: unhashed saves chained", i)
		}
	}
	hashed := latest()
	hashed.CacheKey()
	for i := 0; i < 1000; i++ {
		if err := sp.Write(mem.PFN(i%32), 0, []byte{byte(i), byte(i >> 8), 1}, nil); err != nil {
			t.Fatal(err)
		}
		img, err := r.xl.Save(rec.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if latest() != img {
			t.Fatalf("save %d is not the remembered one", i)
		}
		if img.prev != hashed || hashed.prev != nil {
			t.Fatalf("save %d: reaches something other than the one hashed predecessor", i)
		}
	}
	last := latest()
	last.CacheKey()
	if last.prev != nil {
		t.Fatal("a hashed image still holds its predecessor")
	}
	next, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.prev != last {
		t.Fatal("a save after a hashed one does not inherit from it")
	}
	if err := r.xl.Destroy(rec.ID, nil); err != nil {
		t.Fatal(err)
	}
	if latest() != nil {
		t.Fatal("Destroy left the domain's last image behind")
	}
}

// TestSaveRestoreRaceGuestWriter: a guest writing between the saves,
// hashes and restores of the same domain never moves an image already
// taken — each keeps its bytes and its key however the writes fall — and
// every restore from one, plain or cached, succeeds.
func TestSaveRestoreRaceGuestWriter(t *testing.T) {
	r := newRig(t)
	id, sp := dirtiedParent(t, r, "race")
	n := sp.Pages()
	store := NewImageStore(r.hv.Memory, 0)
	type saved struct {
		img   *Image
		bytes []byte
		key   uint64
	}
	var imgs []saved
	for i := 0; i < 3000; i++ {
		pfn := mem.PFN([]int{4, 5, 6, 7, 9, 40, n - 1}[i%7])
		var err error
		if i%5 == 0 {
			err = sp.Write(pfn, 0, bytes.Repeat([]byte{byte(i) | 1}, mem.PageSize), nil)
		} else {
			err = sp.Write(pfn, (i%500)*8, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%75 != 74 {
			continue
		}
		img, err := r.xl.Save(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, saved{img, imageBytes(img), img.CacheKey()})
		var rec *Record
		if len(imgs)%2 == 0 {
			rec, err = r.xl.Restore(img, fmt.Sprintf("race-%d", i), nil)
		} else {
			rec, _, err = r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, fmt.Sprintf("race-%d", i))
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := spaceOf(t, r, rec.ID).Write(4, 8, []byte("8 bytes!"), nil); err != nil {
			t.Fatal(err)
		}
		if err := r.xl.Destroy(rec.ID, nil); err != nil {
			t.Fatal(err)
		}
	}
	for k, sv := range imgs {
		if !bytes.Equal(imageBytes(sv.img), sv.bytes) {
			t.Fatalf("image %d: bytes moved under later guest writes", k)
		}
		if fresh := (&Image{Config: sv.img.Config, npages: sv.img.npages, runs: sv.img.runs, pages: sv.img.pages}); fresh.CacheKey() != sv.key {
			t.Fatalf("image %d hashes to %#x afresh, %#x when saved", k, fresh.CacheKey(), sv.key)
		}
	}
}

// TestSavedImageSurvivesSiblingResets: an image keeps its bytes and its
// key after the domain it was saved from is destroyed, which frees the
// frames that held its pages, and a sibling's clone then runs 1000 COW-fault
// and clone_reset cycles whose private copies come from the page pool and
// go back to it. A sealed page never enters the pool.
func TestSavedImageSurvivesSiblingResets(t *testing.T) {
	r := newRig(t)
	id, _ := dirtiedParent(t, r, "saved")
	img, err := r.xl.Save(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	stored, key := imageBytes(img), img.CacheKey()
	if err := r.xl.Destroy(id, nil); err != nil {
		t.Fatal(err)
	}
	sibID, sp := dirtiedParent(t, r, "sibling")
	child, _, err := sp.CloneOp(obs.OpCtx{}, mem.DomID(sibID)+100, false) // an ID hv has not handed out
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		for _, pfn := range []mem.PFN{4, 5, 40} {
			if err := child.Write(pfn, (i%500)*8, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := child.ResetOp(obs.OpCtx{}, sp); err != nil {
			t.Fatal(err)
		}
	}
	if err := child.Release(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageBytes(img), stored) {
		t.Fatal("the image's bytes changed under a sibling's faults and resets")
	}
	if fresh := (&Image{Config: img.Config, npages: img.npages, runs: img.runs, pages: img.pages}); fresh.CacheKey() != key {
		t.Fatalf("the image hashes to %#x afresh, %#x when saved", fresh.CacheKey(), key)
	}
}
