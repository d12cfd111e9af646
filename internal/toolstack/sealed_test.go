package toolstack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// imageBytes is every byte an image stores, in its serialized form.
func imageBytes(t *testing.T, img *Image) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := img.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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
	before := imageBytes(t, img)
	scribble(t, sp, 0xEE)
	if !bytes.Equal(imageBytes(t, img), before) {
		t.Fatal("parent writes after Save changed the image")
	}
	after, err := r.xl.Save(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheKey() == img.CacheKey() {
		t.Fatal("a save after writes has the key of the save before them")
	}
	if !bytes.Equal(imageBytes(t, img), before) {
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
	before := imageBytes(t, img)
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
		if !bytes.Equal(imageBytes(t, img), before) {
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

// TestShortStoredPageRestores: the stream admits stored pages shorter than
// a frame (a prefix, the rest zeroes). Such a page cannot be installed by
// reference; every restore path must store it by copy as before, not fail.
func TestShortStoredPageRestores(t *testing.T) {
	cfg := baseConfig("short")
	n := cfg.Pages()
	full := bytes.Repeat([]byte{0x3C}, mem.PageSize)
	built := &Image{Config: cfg, npages: n, runs: []imageRun{
		{start: 0, count: 8},
		{start: 8, count: 3, pages: [][]byte{[]byte("short regular page"), full, {}}},
		{start: 11, count: n - 11 - 3},
		{start: mem.PFN(n - 3), count: 3, pages: [][]byte{full, []byte("short special page"), nil}},
	}}
	img, err := ReadImage(bytes.NewReader(imageBytes(t, built)))
	if err != nil {
		t.Fatalf("stream with short pages refused: %v", err)
	}
	want := make([]byte, n*mem.PageSize)
	copy(want[8*mem.PageSize:], "short regular page")
	copy(want[9*mem.PageSize:], full)
	copy(want[(n-3)*mem.PageSize:], full)
	copy(want[(n-2)*mem.PageSize:], "short special page")

	r := newRig(t)
	cold, err := r.xl.Restore(img, "short-cold", nil)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if !bytes.Equal(domainBytes(t, r, cold.ID, n), want) {
		t.Fatal("cold restore of short pages differs")
	}
	store := NewImageStore(r.hv.Memory, 0)
	for _, path := range []string{"miss", "hit"} {
		rec, served, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "short-"+path)
		if err != nil {
			t.Fatalf("RestoreCached (%s): %v", path, err)
		}
		if served != (path == "hit") {
			t.Fatalf("%s: served from cache = %v", path, served)
		}
		if !bytes.Equal(domainBytes(t, r, rec.ID, n), want) {
			t.Fatalf("cached-%s restore of short pages differs", path)
		}
	}
	if s := store.Stats(); s.InsertFailures != 0 || s.Inserts != 1 {
		t.Fatalf("miss did not populate the cache: %+v", s)
	}
	other := NewImageStore(r.hv.Memory, 0)
	if err := other.Insert(img, nil); err != nil {
		t.Fatalf("Insert: %v", err)
	}

	// A stored page longer than a frame stays refused at the door.
	built.runs[1].pages[1] = make([]byte, mem.PageSize+1)
	long := &Image{Config: cfg, npages: n, runs: built.runs}
	if _, err := ReadImage(bytes.NewReader(imageBytes(t, long))); !errors.Is(err, ErrBadImage) {
		t.Fatalf("oversized stored page: %v, want ErrBadImage", err)
	}
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
	unwritten, err := r.hv.Memory.AllocN(sp.Dom(), 1, nil) // copying it makes a page unwritten again
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
					err = r.hv.Memory.CopyFrameN([]mem.MFN{mfn}, unwritten, nil) // reads as zeroes again: splits a run
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
		prev := img.prev.Load()
		fresh := &Image{Config: img.Config, npages: img.npages, runs: img.runs}
		if img.CacheKey() != fresh.CacheKey() {
			t.Fatalf("round %d: key with inheritance %#x, hashed afresh %#x", round, img.CacheKey(), fresh.CacheKey())
		}
		if !reflect.DeepEqual(img.RunInfos(), fresh.RunInfos()) {
			t.Fatalf("round %d: run infos with inheritance differ from a fresh hash", round)
		}
		for i := range img.runs {
			if run := &img.runs[i]; !run.isAlias && run.pages != nil {
				if got, want := img.infos[i].Hash, hashRun(run.pages); got != want {
					t.Fatalf("round %d: run at %d hash %#x, hashRun %#x", round, run.start, got, want)
				}
				if _, same := prev.sameRunHash(run); same {
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
	for i, ri := range second.RunInfos() {
		if ri.Kind == RunData && ri.Count == 1024 {
			data = append(data, i)
		}
	}
	if len(data) != 2 {
		t.Fatalf("expected the two 1024-page data runs, found %d", len(data))
	}
	const lie = 0x0BADC0DE
	for _, i := range data {
		second.infos[i].Hash ^= lie
	}
	if err := sp.Write(2048+17, 8, []byte("8 bytes!"), nil); err != nil {
		t.Fatal(err)
	}
	third, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	infos := third.RunInfos()
	if got, want := infos[data[0]].Hash, second.infos[data[0]].Hash; got != want {
		t.Fatal("the untouched run was hashed again instead of taking its stored hash over")
	}
	if got, want := infos[data[1]].Hash, hashRun(third.runs[data[1]].pages); got != want {
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
		r.xl.mu.Lock()
		defer r.xl.mu.Unlock()
		return r.xl.lastSave[rec.ID]
	}
	// Never hashed: nothing to inherit from, nothing kept but the latest.
	for i := 0; i < 10; i++ {
		img, err := r.xl.Save(rec.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if latest() != img || img.prev.Load() != nil {
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
		if img.prev.Load() != hashed || hashed.prev.Load() != nil {
			t.Fatalf("save %d: reaches something other than the one hashed predecessor", i)
		}
	}
	last := latest()
	last.CacheKey()
	if last.prev.Load() != nil {
		t.Fatal("a hashed image still holds its predecessor")
	}
	next, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.prev.Load() != last {
		t.Fatal("a save after a hashed one does not inherit from it")
	}
	if err := r.xl.Destroy(rec.ID, nil); err != nil {
		t.Fatal(err)
	}
	if latest() != nil {
		t.Fatal("Destroy left the domain's last image behind")
	}
}

// TestSaveRestoreRaceGuestWriter (-race): a guest writing while the same
// domain is saved, hashed and restored from concurrently.
func TestSaveRestoreRaceGuestWriter(t *testing.T) {
	r := newRig(t)
	id, sp := dirtiedParent(t, r, "race")
	n := sp.Pages()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3000; i++ {
			pfn := mem.PFN([]int{4, 5, 6, 7, 9, 40, n - 1}[i%7])
			var err error
			if i%5 == 0 {
				err = sp.Write(pfn, 0, bytes.Repeat([]byte{byte(i) | 1}, mem.PageSize), nil)
			} else {
				err = sp.Write(pfn, (i%500)*8, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}, nil)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	store := NewImageStore(r.hv.Memory, 0)
	for i := 0; i < 40; i++ {
		img, err := r.xl.Save(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		img.CacheKey()
		var rec *Record
		if i%2 == 0 {
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
	wg.Wait()
}
