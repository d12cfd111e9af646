package toolstack

import (
	"encoding/json"

	"nephele/internal/fnv1a"
	"nephele/internal/mem"
)

// hashRun content-hashes one data run: page count plus, per slot, a
// present marker and the page bytes. A nil slot (a page reading as zeroes)
// hashes as absent, so the same contents hash identically whether the
// zero page was scrubbed at save time or never stored.
func hashRun(pages []*[mem.PageSize]byte) uint64 {
	h := fnv1a.Uint64(fnv1a.Offset, uint64(len(pages)))
	for _, p := range pages {
		if p == nil {
			h = fnv1a.Uint64(h, 0)
			continue
		}
		h = fnv1a.Uint64(h, 1)
		h = fnv1a.Bytes(h, p[:])
	}
	return h
}

// ensureHashed computes, once, every data run's content hash and the image
// cache key. The key covers the restore-relevant configuration (the name
// is cleared — a restore renames the domain anyway, and two saves of the
// same guest under different names are the same image), the on-wire page
// count, and every run's geometry plus content hash, so any difference in
// layout or bytes yields a different key.
//
// A data run that an earlier image of the same domain already hashed —
// same geometry, the very same pages (sameRunHash) — takes that hash over
// instead of being hashed again, so a re-save pays only for the runs that
// changed. One forward cursor walks the earlier image's sorted runs
// alongside these. The predecessor is let go afterwards: a hashed image is
// itself what the next save inherits from.
func (img *Image) ensureHashed() {
	if img.hashes != nil {
		return
	}
	hashes := make([]uint64, len(img.runs))
	cfg := img.Config
	cfg.Name = ""
	cfgJSON, err := json.Marshal(cfg)
	h := fnv1a.Offset
	if err == nil {
		h = fnv1a.Bytes(h, cfgJSON)
	}
	h = fnv1a.Uint64(h, uint64(img.npages))
	cursor := 0 // into img.prev.runs
	for i := range img.runs {
		r := &img.runs[i]
		h = fnv1a.Uint64(h, uint64(r.Start))
		h = fnv1a.Uint64(h, uint64(r.Count))
		switch r.Kind {
		case mem.RunAlias:
			h = fnv1a.Uint64(h, 1)
			h = fnv1a.Uint64(h, uint64(r.Alias))
		case mem.RunZero:
			h = fnv1a.Uint64(h, 2)
		default:
			pages := img.runPages(i)
			var same bool
			if hashes[i], same = img.prev.sameRunHash(&cursor, r.Start, pages); !same {
				hashes[i] = hashRun(pages)
			}
			h = fnv1a.Uint64(h, 3)
			h = fnv1a.Uint64(h, hashes[i])
		}
	}
	img.hashes, img.key = hashes, h
	img.prev = nil
}

// sameRunHash returns the stored content hash of old's data run that
// starts at start, has len(pages) slots and whose every slot is the same
// page pointer as pages': both absent, or the same page. Image pages are
// never written after they enter an image (sealed frames privatise before
// a write, DESIGN.md §10.1), so the same page is the same bytes and the
// hash may be taken over unread. old must be hashed or nil. *cursor is
// where the search through old's runs starts and is left at the first run
// not before start, so calls in ascending start order walk old once.
func (old *Image) sameRunHash(cursor *int, start mem.PFN, pages []*[mem.PageSize]byte) (uint64, bool) {
	if old == nil {
		return 0, false
	}
	i := *cursor
	for i < len(old.runs) && old.runs[i].Start < start {
		i++
	}
	*cursor = i
	if i == len(old.runs) {
		return 0, false
	}
	o := &old.runs[i]
	if o.Start != start || int(o.Count) != len(pages) || o.Kind != mem.RunData {
		return 0, false
	}
	for j, q := range old.runPages(i) {
		if pages[j] != q {
			return 0, false
		}
	}
	return old.hashes[i], true
}

// hashedAncestor returns the nearest image at or before img that has been
// hashed — what a later save of the same domain may inherit from — or nil.
// An unhashed image is skipped rather than chained through, so however
// many saves go unhashed, only one earlier image stays reachable.
func (img *Image) hashedAncestor() *Image {
	if img == nil {
		return nil
	}
	if img.hashes != nil {
		return img
	}
	return img.prev
}

// CacheKey returns the image's deterministic content-addressed identity:
// equal keys mean equal restore results. The first call hashes the image;
// later calls are free.
func (img *Image) CacheKey() uint64 {
	img.ensureHashed()
	return img.key
}

// Chunk returns the transfer identity of run i: a data run's content hash
// (the cross-host dedup identity — the same FNV-1a key the receiver's
// ImageStore chunks under) and how many page slots it stores; 0, 0 for a
// zero or alias run, which ships as a header only. The first call hashes
// the image.
func (img *Image) Chunk(i int) (hash uint64, stored int) {
	img.ensureHashed()
	if img.runs[i].Kind != mem.RunData {
		return 0, 0
	}
	for _, p := range img.runPages(i) {
		if p != nil {
			stored++
		}
	}
	return img.hashes[i], stored
}
