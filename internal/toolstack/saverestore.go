package toolstack

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/vclock"
)

// Image is a saved domain image: the configuration plus the full contents
// of the guest memory, encoded as run-length extents rather than one slice
// per page. Zero runs (pages the guest never wrote) store nothing, alias
// runs (family-shared mappings that repeat earlier frames) store nothing,
// and only genuinely distinct written pages carry data. A page in an image
// is immutable: Save takes the frames' own pages, sealed (mem.Space
// SnapshotRuns), and Restore installs them by reference, so the simulator
// itself copies nothing. The model is unchanged by that — restore still
// charges for the entire allocated VM memory regardless of how much the
// guest actually used (Pages() reports the full on-wire count), which is
// why restore is consistently slower than boot in Fig. 4.
type Image struct {
	Config DomainConfig
	npages int        // full allocated page count (the on-wire size)
	runs   []imageRun // sorted by start, non-overlapping

	// hashOnce lazily computes the content-addressed identity: infos (one
	// entry per run, a data run's FNV-1a content hash included) plus the
	// image-wide cache key. Hashing never mutates runs, so a hashed image
	// stays safe for concurrent readers.
	hashOnce sync.Once
	infos    []RunInfo // parallel to runs
	key      uint64

	// prev is the nearest hashed earlier image of the same live domain
	// (set by Save, cleared once this image is hashed itself); hashed
	// flips when infos and key are final. See ensureHashed.
	prev   atomic.Pointer[Image]
	hashed atomic.Bool
}

// imageRun is one extent of the image: count consecutive pfns from start.
// A zero run has nil pages; a data run carries one slot per pfn (all-zero
// written pages are scrubbed to nil slots); an alias run repeats the
// contents of the run covering pfn alias.
type imageRun struct {
	start   mem.PFN
	count   int
	pages   [][]byte
	alias   mem.PFN // valid iff isAlias
	isAlias bool
}

// Pages reports the number of frames in the image: the full allocated VM
// memory, however compactly the extents encode it.
func (img *Image) Pages() int { return img.npages }

// Runs reports the number of extents encoding the image.
func (img *Image) Runs() int { return len(img.runs) }

// runIndexOf binary-searches the sorted runs for the one covering pfn,
// returning -1 when no run does.
func (img *Image) runIndexOf(pfn mem.PFN) int {
	i := sort.Search(len(img.runs), func(k int) bool {
		r := &img.runs[k]
		return r.start+mem.PFN(r.count) > pfn
	})
	if i == len(img.runs) || pfn < img.runs[i].start {
		return -1
	}
	return i
}

// pageAt resolves the stored contents of one pfn, following at most one
// level of alias indirection (aliases always point into fresh runs). nil
// means the page reads as zeroes.
func (img *Image) pageAt(pfn mem.PFN) []byte {
	i := img.runIndexOf(pfn)
	if i < 0 {
		return nil
	}
	r := &img.runs[i]
	if r.isAlias {
		src := r.alias + (pfn - r.start)
		j := img.runIndexOf(src)
		if j < 0 {
			return nil
		}
		sr := &img.runs[j]
		if sr.isAlias || sr.pages == nil {
			return nil
		}
		return sr.pages[src-sr.start]
	}
	if r.pages == nil {
		return nil
	}
	return r.pages[pfn-r.start]
}

// forEachAliasPage invokes fn for every stored (non-zero) page of the
// alias run r, resolving each source run it covers once instead of once
// per page. off is the page's offset within r; aliases always point into
// fresh runs, so a nested alias contributes zeroes.
func (img *Image) forEachAliasPage(r *imageRun, fn func(off int, data []byte) error) error {
	for off := 0; off < r.count; {
		src := r.alias + mem.PFN(off)
		i := img.runIndexOf(src)
		if i < 0 {
			off++
			continue
		}
		sr := &img.runs[i]
		n := int(sr.start) + sr.count - int(src)
		if rest := r.count - off; n > rest {
			n = rest
		}
		if !sr.isAlias && sr.pages != nil {
			base := int(src - sr.start)
			for j := 0; j < n; j++ {
				if data := sr.pages[base+j]; data != nil {
					if err := fn(off+j, data); err != nil {
						return err
					}
				}
			}
		}
		off += n
	}
	return nil
}

// Save serializes a running domain to an image (the domain keeps running;
// the paper's experiment saves and then restores a fresh instance each
// iteration).
func (x *XL) Save(id hv.DomID, meter *vclock.Meter) (*Image, error) {
	rec, err := x.Record(id)
	if err != nil {
		return nil, err
	}
	dom, err := x.HV.Domain(id)
	if err != nil {
		return nil, err
	}
	space := dom.Space()
	n := space.Pages()
	// SnapshotRuns captures the whole space in one coherent pass as
	// extents: never-written ranges collapse into zero runs with no
	// per-page storage, repeated family-shared frames into alias runs,
	// so only pages the guest actually touched need the zero scan. The
	// pages are the frames' own, sealed: nothing is copied.
	runs, err := space.SnapshotRuns()
	if err != nil {
		return nil, fmt.Errorf("toolstack: save domain %d: %w", id, err)
	}
	iruns := make([]imageRun, len(runs))
	for i, r := range runs {
		iruns[i] = imageRun{start: r.Start, count: r.Count, pages: r.Pages,
			alias: r.Alias, isAlias: r.IsAlias}
		for j, data := range iruns[i].pages {
			if data != nil && allZero(data) {
				iruns[i].pages[j] = nil
			}
		}
	}
	img := &Image{Config: rec.Config, npages: n, runs: iruns}
	// Remember the image as the domain's latest, and let it inherit run
	// hashes from the nearest hashed one before it. Destroy forgets it.
	x.mu.Lock()
	if _, live := x.byID[id]; live {
		img.prev.Store(x.lastSave[id].hashedAncestor())
		x.lastSave[id] = img
	}
	x.mu.Unlock()
	meter.Charge(meter.Costs().ImagePageSave, n)
	return img, nil
}

// Restore instantiates a new domain from an image under a fresh name. The
// toolstack path mirrors Create, then every stored page of the image is
// installed in the new domain by reference (Space.WritePage) and the copy
// of the whole image memory is charged.
func (x *XL) Restore(img *Image, name string, meter *vclock.Meter) (*Record, error) {
	cfg := img.Config
	cfg.Name = name
	rec, err := x.Create(cfg, meter)
	if err != nil {
		return nil, err
	}
	dom, err := x.HV.Domain(rec.ID)
	if err != nil {
		return nil, err
	}
	space := dom.Space()
	if space.Pages() < img.npages {
		x.Destroy(rec.ID, nil)
		return nil, fmt.Errorf("toolstack: image has %d pages, domain %d", img.npages, space.Pages())
	}
	// Walk the image run by run: zero runs are skipped (a fresh domain's
	// pages already read as zeroes), data runs stream their stored pages,
	// and alias runs resolve each covered source run once instead of a
	// full run-table lookup per page.
	for ri := range img.runs {
		r := &img.runs[ri]
		if r.isAlias {
			err := img.forEachAliasPage(r, func(off int, data []byte) error {
				return space.WritePage(r.start+mem.PFN(off), data, nil)
			})
			if err != nil {
				x.Destroy(rec.ID, nil)
				return nil, fmt.Errorf("toolstack: restore alias run at %d: %w", r.start, err)
			}
			continue
		}
		for j, data := range r.pages {
			if data == nil {
				continue
			}
			if err := space.WritePage(r.start+mem.PFN(j), data, nil); err != nil {
				x.Destroy(rec.ID, nil)
				return nil, fmt.Errorf("toolstack: restore pfn %d: %w", r.start+mem.PFN(j), err)
			}
		}
	}
	// The entire allocated memory is charged, used or not (§6.1).
	meter.Charge(meter.Costs().ImagePageRestore, img.npages)
	return rec, nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}
