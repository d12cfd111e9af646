package toolstack

import (
	"bytes"
	"fmt"
	"testing"

	"nephele/internal/mem"
)

// TestImageExtentEncoding: a mostly-idle guest collapses into a handful
// of runs instead of one slice per page, while Pages() still reports the
// full allocated count and every written byte survives the round trip.
func TestImageExtentEncoding(t *testing.T) {
	r := newRig(t)
	rec, err := r.xl.Create(baseConfig("sparse"), nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := r.hv.Domain(rec.ID)
	sp := dom.Space()

	// Touch three scattered pages; one of them written with zeroes only
	// (indistinguishable on the wire from never written).
	sp.Write(2, 0, []byte("alpha"), nil)
	sp.Write(100, 50, []byte("beta"), nil)
	sp.Write(300, 0, make([]byte, 64), nil)

	img, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := baseConfig("sparse").Pages()
	if img.Pages() != want {
		t.Fatalf("Pages() = %d, want the full allocation %d", img.Pages(), want)
	}
	// Three touched pages split the space into at most 7 runs
	// (zero|data|zero|data|zero|data|zero); per-page storage would be
	// >1000 entries for a 4 MiB guest.
	if img.Runs() > 7 {
		t.Fatalf("image encodes %d runs for 3 touched pages", img.Runs())
	}
	stored := 0
	for _, run := range img.runs {
		for _, p := range run.Pages {
			if p != nil {
				stored++
			}
		}
	}
	if stored != 2 {
		t.Fatalf("stored %d page bodies, want 2 (zero-written page scrubbed)", stored)
	}

	rec2, err := r.xl.Restore(img, "sparse-2", nil)
	if err != nil {
		t.Fatal(err)
	}
	dom2, _ := r.hv.Domain(rec2.ID)
	check := func(pfn mem.PFN, off int, want []byte) {
		t.Helper()
		buf := make([]byte, len(want))
		if err := dom2.Space().Read(pfn, off, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("pfn %d: restored %q, want %q", pfn, buf, want)
		}
	}
	check(2, 0, []byte("alpha"))
	check(100, 50, []byte("beta"))
	check(300, 0, make([]byte, 64))
	check(500, 0, make([]byte, 16)) // untouched page reads zero
}

// TestImagePageAtAliasResolution exercises the alias indirection of
// pageAt directly against a hand-built image.
func TestImagePageAtAliasResolution(t *testing.T) {
	data := []byte{1, 2, 3}
	img := &Image{
		npages: 12,
		runs: []mem.SnapshotRun{
			{Start: 0, Count: 4},                             // zero run
			{Start: 4, Count: 2, Pages: [][]byte{data, nil}}, // data run
			{Start: 6, Count: 2, Alias: 4, IsAlias: true},    // repeats pfns 4..5
			{Start: 8, Count: 4},                             // zero run
		},
	}
	if got := img.pageAt(3); got != nil {
		t.Fatalf("pageAt(3) = %v, want nil", got)
	}
	if got := img.pageAt(4); !bytes.Equal(got, data) {
		t.Fatalf("pageAt(4) = %v", got)
	}
	if got := img.pageAt(6); !bytes.Equal(got, data) {
		t.Fatalf("pageAt(6) via alias = %v", got)
	}
	if got := img.pageAt(7); got != nil {
		t.Fatalf("pageAt(7) via alias = %v, want nil (scrubbed slot)", got)
	}
	if got := img.pageAt(11); got != nil {
		t.Fatalf("pageAt(11) = %v, want nil", got)
	}
}

// TestContentHashesPinned pins the content hashes of one fixed saved image
// by value. They are ImageStore keys and, through the cluster's transfer
// plan, bond-slave choices (virtual time), so a change to how they are
// computed must leave every one of them unchanged.
func TestContentHashesPinned(t *testing.T) {
	r := newRig(t)
	rec, err := r.xl.Create(baseConfig("pinned"), nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := r.hv.Domain(rec.ID)
	sp := dom.Space()
	dense := make([]byte, mem.PageSize)
	for i := range dense {
		dense[i] = byte(i*7 + 1)
	}
	sp.Write(2, 0, []byte("alpha"), nil)
	sp.Write(100, 50, []byte("beta"), nil)
	sp.Write(101, mem.PageSize-3, []byte("end"), nil)
	sp.Write(200, 0, dense, nil)
	img, err := r.xl.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []uint64
	for _, ri := range img.RunInfos() {
		if ri.Kind == RunData {
			got = append(got, ri.Hash)
		}
	}
	if key := img.CacheKey(); key != 0xbfa4fb34a8ee486d {
		t.Errorf("CacheKey = %#x, want 0xbfa4fb34a8ee486d", key)
	}
	want := []uint64{0x9c46e5e07e35ad79, 0xcfed36bf7ecf0b6c, 0x7b2b0062741d7645}
	if fmt.Sprintf("%#x", got) != fmt.Sprintf("%#x", want) {
		t.Errorf("data-run hashes = %#x, want %#x", got, want)
	}
}
