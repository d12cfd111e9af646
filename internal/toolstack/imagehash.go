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
func hashRun(pages [][]byte) uint64 {
	h := fnv1a.Uint64(fnv1a.Offset, uint64(len(pages)))
	for _, data := range pages {
		if data == nil {
			h = fnv1a.Uint64(h, 0)
			continue
		}
		h = fnv1a.Uint64(h, 1)
		h = fnv1a.Bytes(h, data)
	}
	return h
}

// ensureHashed computes, once, the transfer-planning view of every run
// (data runs' content hashes included) and the image cache key. The key
// covers the restore-relevant configuration (the name is cleared — a
// restore renames the domain anyway, and two saves of the same guest under
// different names are the same image), the on-wire page count, and every
// run's geometry plus content hash, so any difference in layout or bytes
// yields a different key.
//
// A data run that an earlier image of the same domain already hashed —
// same geometry, the very same backing arrays (sameRunHash) — takes that
// hash over instead of being hashed again, so a re-save pays only for the
// runs that changed. The predecessor is let go afterwards: a hashed image
// is itself what the next save inherits from.
func (img *Image) ensureHashed() {
	img.hashOnce.Do(func() {
		prev := img.prev.Load()
		infos := make([]RunInfo, len(img.runs))
		cfg := img.Config
		cfg.Name = ""
		cfgJSON, err := json.Marshal(cfg)
		h := fnv1a.Offset
		if err == nil {
			h = fnv1a.Bytes(h, cfgJSON)
		}
		h = fnv1a.Uint64(h, uint64(img.npages))
		for i := range img.runs {
			r := &img.runs[i]
			ri := &infos[i]
			ri.Start, ri.Count = r.Start, r.Count
			h = fnv1a.Uint64(h, uint64(r.Start))
			h = fnv1a.Uint64(h, uint64(r.Count))
			switch {
			case r.IsAlias:
				ri.Kind = RunAlias
				h = fnv1a.Uint64(h, 1)
				h = fnv1a.Uint64(h, uint64(r.Alias))
			case r.Pages == nil:
				ri.Kind = RunZero
				h = fnv1a.Uint64(h, 2)
			default:
				ri.Kind = RunData
				for _, data := range r.Pages {
					if data != nil {
						ri.StoredPages++
					}
				}
				var same bool
				if ri.Hash, same = prev.sameRunHash(r); !same {
					ri.Hash = hashRun(r.Pages)
				}
				h = fnv1a.Uint64(h, 3)
				h = fnv1a.Uint64(h, ri.Hash)
			}
		}
		img.infos, img.key = infos, h
		// hashed before prev is cleared: hashedAncestor reads them in the
		// opposite order and so never finds neither.
		img.hashed.Store(true)
		img.prev.Store(nil)
	})
}

// sameRunHash returns the stored content hash of old's data run that has
// r's geometry and whose every slot is r's slot: both absent, or the same
// backing array. Image pages are never written after they enter an image
// (sealed frames privatise before a write, DESIGN.md §10.1), so the same
// array is the same bytes and the hash may be taken over unread. old must
// be hashed or nil.
func (old *Image) sameRunHash(r *mem.SnapshotRun) (uint64, bool) {
	if old == nil {
		return 0, false
	}
	i := old.runIndexOf(r.Start)
	if i < 0 {
		return 0, false
	}
	o := &old.runs[i]
	if o.Start != r.Start || o.Count != r.Count || o.IsAlias || o.Pages == nil {
		return 0, false
	}
	for j, p := range r.Pages {
		q := o.Pages[j]
		if (p == nil) != (q == nil) || len(p) != len(q) || (len(p) > 0 && &p[0] != &q[0]) {
			return 0, false
		}
	}
	return old.infos[i].Hash, true
}

// hashedAncestor returns the nearest image at or before img that has been
// hashed — what a later save of the same domain may inherit from — or nil.
// An unhashed image is skipped rather than chained through, so however
// many saves go unhashed, only one earlier image stays reachable.
func (img *Image) hashedAncestor() *Image {
	if img == nil {
		return nil
	}
	prev := img.prev.Load()
	if img.hashed.Load() {
		return img
	}
	return prev
}

// CacheKey returns the image's deterministic content-addressed identity:
// equal keys mean equal restore results. The first call hashes the image;
// later calls are free.
func (img *Image) CacheKey() uint64 {
	img.ensureHashed()
	return img.key
}

// RunKind classifies one image extent for transfer planning.
type RunKind int

const (
	// RunZero: pages the guest never wrote; nothing stored, nothing shipped.
	RunZero RunKind = iota
	// RunAlias: a family-shared range repeating an earlier extent; ships as
	// a header only.
	RunAlias
	// RunData: genuinely distinct written pages with a content hash.
	RunData
)

// RunInfo describes one image extent without exposing its page storage:
// the geometry, the kind, how many page slots a data run stores, and the
// data run's content hash (the cross-host dedup identity — the same FNV-1a
// key the receiver's ImageStore chunks under).
type RunInfo struct {
	Start       mem.PFN
	Count       int
	Kind        RunKind
	StoredPages int    // non-nil page slots in a data run; 0 otherwise
	Hash        uint64 // content hash of a data run; 0 otherwise
}

// RunInfos returns the transfer-planning view of the image's extents, in
// layout order. The first call hashes the image; every call returns the
// same slice, which callers must not modify.
func (img *Image) RunInfos() []RunInfo {
	img.ensureHashed()
	return img.infos
}
