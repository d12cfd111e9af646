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
	for _, p := range img.pages {
		if p != nil {
			stored++
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

// extent is one run of a hand-built image (imageOf): a zero run, a data
// run carrying its pages (a nil page reads as zeroes) or an alias run.
type extent struct {
	run   mem.SnapshotRun
	pages []*[mem.PageSize]byte
}

func zeroRun(start, count int) extent {
	return extent{run: mem.SnapshotRun{Start: mem.PFN(start), Count: int32(count)}}
}

func dataRun(start int, pages ...*[mem.PageSize]byte) extent {
	return extent{run: mem.SnapshotRun{Start: mem.PFN(start), Count: int32(len(pages)), Kind: mem.RunData}, pages: pages}
}

func aliasRun(start, count, of int) extent {
	return extent{run: mem.SnapshotRun{Start: mem.PFN(start), Count: int32(count), Kind: mem.RunAlias, Alias: int32(of)}}
}

// imageOf hand-builds an image of npages pages from extents in pfn order,
// laying the data runs' pages out in one page list as a save does.
func imageOf(cfg DomainConfig, npages int, exts ...extent) *Image {
	img := &Image{Config: cfg, npages: npages}
	for _, e := range exts {
		if e.run.Kind == mem.RunData {
			e.run.Page = int32(len(img.pages))
			img.pages = append(img.pages, e.pages...)
		}
		img.runs = append(img.runs, e.run)
	}
	return img
}

// filled returns a page of b bytes.
func filled(b byte) *[mem.PageSize]byte {
	p := new([mem.PageSize]byte)
	for i := range p {
		p[i] = b
	}
	return p
}

// setPage replaces the stored page of pfn, which a data run of img covers.
func setPage(img *Image, pfn int, p *[mem.PageSize]byte) {
	r := &img.runs[img.runIndexOf(mem.PFN(pfn))]
	img.pages[int(r.Page)+pfn-int(r.Start)] = p
}

// TestImagePageAtAliasResolution exercises the alias indirection of
// pageAt directly against a hand-built image.
func TestImagePageAtAliasResolution(t *testing.T) {
	data := filled(3)
	img := imageOf(DomainConfig{}, 12,
		zeroRun(0, 4),
		dataRun(4, data, nil),
		aliasRun(6, 2, 4), // repeats pfns 4..5
		zeroRun(8, 4),
	)
	if got := img.pageAt(3); got != nil {
		t.Fatalf("pageAt(3) = %p, want nil", got)
	}
	if got := img.pageAt(4); got != data {
		t.Fatalf("pageAt(4) = %p, want %p", got, data)
	}
	if got := img.pageAt(6); got != data {
		t.Fatalf("pageAt(6) via alias = %p, want %p", got, data)
	}
	if got := img.pageAt(7); got != nil {
		t.Fatalf("pageAt(7) via alias = %p, want nil (scrubbed slot)", got)
	}
	if got := img.pageAt(11); got != nil {
		t.Fatalf("pageAt(11) = %p, want nil", got)
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
	key := img.CacheKey()
	var got []uint64
	for i, r := range img.runs {
		if r.Kind == mem.RunData {
			got = append(got, img.hashes[i])
		}
	}
	if key != 0xbfa4fb34a8ee486d {
		t.Errorf("CacheKey = %#x, want 0xbfa4fb34a8ee486d", key)
	}
	want := []uint64{0x9c46e5e07e35ad79, 0xcfed36bf7ecf0b6c, 0x7b2b0062741d7645}
	if fmt.Sprintf("%#x", got) != fmt.Sprintf("%#x", want) {
		t.Errorf("data-run hashes = %#x, want %#x", got, want)
	}
}
