package toolstack

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
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
	for _, r := range img.runs {
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Start))
		out = binary.LittleEndian.AppendUint64(out, uint64(r.Count))
		switch {
		case r.IsAlias:
			out = append(out, 'a')
			out = binary.LittleEndian.AppendUint64(out, uint64(r.Alias))
		case r.Pages == nil:
			out = append(out, 'z')
		default:
			out = append(out, 'd')
			for _, data := range r.Pages {
				out = binary.LittleEndian.AppendUint32(out, uint32(len(data)))
				out = append(out, data...)
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

// TestStoredPageOfWrongLengthRefused: a page can be installed by reference
// only if it is exactly one frame long, and SnapshotRuns never captures any
// other. A hand-built image with a shorter or a longer stored page, among
// the regular or the special pages, is refused by the cold restore, the
// cached-miss restore and ImageStore.Insert with an error wrapping
// mem.ErrBadOffset, and each leaves the domains, the free frames and the
// store's stats as they were (a cached restore counts its miss).
func TestStoredPageOfWrongLengthRefused(t *testing.T) {
	cfg := baseConfig("bad-page")
	n := cfg.Pages()
	full := bytes.Repeat([]byte{0x3C}, mem.PageSize)
	for _, tc := range []struct {
		name string
		pfn  int // 8..10 are regular pages, n-3..n-1 special ones
		page []byte
	}{
		{"short regular", 8, []byte("short regular page")},
		{"short special", n - 2, []byte("short special page")},
		{"long regular", 9, make([]byte, mem.PageSize+1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			img := &Image{Config: cfg, npages: n, runs: []mem.SnapshotRun{
				{Start: 0, Count: 8},
				{Start: 8, Count: 3, Pages: [][]byte{full, full, nil}},
				{Start: 11, Count: n - 11 - 3},
				{Start: mem.PFN(n - 3), Count: 3, Pages: [][]byte{full, full, nil}},
			}}
			i := img.runIndexOf(mem.PFN(tc.pfn))
			img.runs[i].Pages[tc.pfn-int(img.runs[i].Start)] = tc.page

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

			if _, err := r.xl.Restore(img, "bad-cold", nil); !errors.Is(err, mem.ErrBadOffset) {
				t.Fatalf("cold restore: %v, want ErrBadOffset", err)
			}
			unchanged("cold restore", 0)
			if _, _, err := r.xl.RestoreCachedOp(obs.OpCtx{}, store, img, "bad-miss"); !errors.Is(err, mem.ErrBadOffset) {
				t.Fatalf("cached-miss restore: %v, want ErrBadOffset", err)
			}
			unchanged("cached-miss restore", 1)
			stats = store.Stats()
			if err := store.Insert(img, nil); !errors.Is(err, mem.ErrBadOffset) {
				t.Fatalf("Insert: %v, want ErrBadOffset", err)
			}
			unchanged("Insert", 0)
		})
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
		fresh := &Image{Config: img.Config, npages: img.npages, runs: img.runs}
		if img.CacheKey() != fresh.CacheKey() {
			t.Fatalf("round %d: key with inheritance %#x, hashed afresh %#x", round, img.CacheKey(), fresh.CacheKey())
		}
		if !reflect.DeepEqual(img.RunInfos(), fresh.RunInfos()) {
			t.Fatalf("round %d: run infos with inheritance differ from a fresh hash", round)
		}
		for i := range img.runs {
			if run := &img.runs[i]; !run.IsAlias && run.Pages != nil {
				if got, want := img.infos[i].Hash, hashRun(run.Pages); got != want {
					t.Fatalf("round %d: run at %d hash %#x, hashRun %#x", round, run.Start, got, want)
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
	if got, want := infos[data[1]].Hash, hashRun(third.runs[data[1]].Pages); got != want {
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
		if fresh := (&Image{Config: sv.img.Config, npages: sv.img.npages, runs: sv.img.runs}); fresh.CacheKey() != sv.key {
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
	if fresh := (&Image{Config: img.Config, npages: img.npages, runs: img.runs}); fresh.CacheKey() != key {
		t.Fatalf("the image hashes to %#x afresh, %#x when saved", fresh.CacheKey(), key)
	}
}
