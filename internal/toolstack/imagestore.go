package toolstack

import (
	"fmt"
	"sort"
	"sync"

	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// ImageStore is a content-addressed snapshot cache. Every data run of an
// inserted image becomes a chunk keyed by its FNV content hash and backed
// by resident machine frames owned by the cache pseudo-domain and
// transferred to dom_cow — so a cached restore materializes a child by
// COW-sharing those frames (Space.AdoptShared, one sharer bump per frame)
// instead of copying every page back. Chunks are deduplicated across
// images: two snapshots whose guests wrote the same bytes share one set of
// resident frames.
//
// Residency is bounded by maxPages; inserting past the bound evicts whole
// images least-recently-used first. Evicting an image drops the cache's
// reference on each of its chunks' frames — children still COW-sharing
// them keep them alive through their own references, exactly like any
// family-shared frame.
type ImageStore struct {
	mem *mem.Memory
	dom mem.DomID

	mu       sync.Mutex
	chunks   map[uint64]*imageChunk
	images   map[uint64]*cachedImage
	order    uint64 // logical clock for LRU
	maxPages int    // 0 = unbounded
	resident int    // frames currently held by the cache

	hits, misses, inserts, evictions, insertFailures, adopted int64

	faults *fault.Registry
	gauges storeGauges
}

// storeGauges are the imagecache.* instruments, resolved once by
// SetMetrics so publishing a counter is a store, not a registry lookup.
// They are nil (and Set a no-op) while no registry is attached.
type storeGauges struct {
	hits, misses, inserts, evictions, insertFailures, adopted, resident, images *obs.Gauge
}

// imageChunk is one resident data run, shared by every cached image whose
// contents hash to it.
type imageChunk struct {
	hash uint64
	mfns []mem.MFN
	refs int // cached images referencing this chunk
}

// cachedRun parallels one image run: chunk is nil for zero and alias runs.
type cachedRun struct {
	start mem.PFN
	count int
	chunk *imageChunk
}

// cachedImage is the cache's view of one inserted image.
type cachedImage struct {
	key     uint64
	runs    []cachedRun
	npages  int
	lastUse uint64
}

// ImageStoreStats is a deterministic snapshot of the cache counters.
type ImageStoreStats struct {
	Hits, Misses   int64
	Inserts        int64
	Evictions      int64
	InsertFailures int64
	AdoptedFrames  int64 // frames handed to children by cached restores
	Images, Chunks int
	ResidentPages  int
}

// NewImageStore creates a cache over the pool, bounded to maxResidentMB
// of resident chunk frames (0 = unbounded).
func NewImageStore(m *mem.Memory, maxResidentMB int) *ImageStore {
	return &ImageStore{
		mem:      m,
		dom:      mem.DomIDCache,
		chunks:   make(map[uint64]*imageChunk),
		images:   make(map[uint64]*cachedImage),
		maxPages: maxResidentMB * 256,
	}
}

// SetFaults installs a fault-injection registry on the insert and
// cached-restore paths (tests); nil disables injection.
func (st *ImageStore) SetFaults(r *fault.Registry) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.faults = r
}

// SetMetrics mirrors the cache counters into a metrics registry (the
// platform registry, normally); nil detaches.
func (st *ImageStore) SetMetrics(r *obs.Registry) {
	g := storeGauges{
		hits:           r.Gauge("imagecache.hits"),
		misses:         r.Gauge("imagecache.misses"),
		inserts:        r.Gauge("imagecache.inserts"),
		evictions:      r.Gauge("imagecache.evictions"),
		insertFailures: r.Gauge("imagecache.insert_failures"),
		adopted:        r.Gauge("imagecache.adopted_frames"),
		resident:       r.Gauge("imagecache.resident_pages"),
		images:         r.Gauge("imagecache.images"),
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.gauges = g
}

// Stats snapshots the cache counters.
func (st *ImageStore) Stats() ImageStoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return ImageStoreStats{
		Hits: st.hits, Misses: st.misses,
		Inserts: st.inserts, Evictions: st.evictions,
		InsertFailures: st.insertFailures, AdoptedFrames: st.adopted,
		Images: len(st.images), Chunks: len(st.chunks),
		ResidentPages: st.resident,
	}
}

// publishLocked pushes the counters into the attached registry.
func (st *ImageStore) publishLocked() {
	g := &st.gauges
	g.hits.Set(st.hits)
	g.misses.Set(st.misses)
	g.inserts.Set(st.inserts)
	g.evictions.Set(st.evictions)
	g.insertFailures.Set(st.insertFailures)
	g.adopted.Set(st.adopted)
	g.resident.Set(int64(st.resident))
	g.images.Set(int64(len(st.images)))
}

// touch looks the key up, counting a hit or miss and refreshing the LRU
// position. It returns nil on a miss.
func (st *ImageStore) touch(key uint64) *cachedImage {
	st.mu.Lock()
	defer st.mu.Unlock()
	ci, ok := st.images[key]
	if !ok {
		st.misses++
		st.publishLocked()
		return nil
	}
	st.hits++
	st.order++
	ci.lastUse = st.order
	st.publishLocked()
	return ci
}

// Contains reports whether the image is currently resident (no counter
// side effects).
func (st *ImageStore) Contains(img *Image) bool {
	key := img.CacheKey()
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.images[key]
	return ok
}

// HasChunk reports whether a data run with the given content hash is
// resident — the receiver-side dedup query of a cross-host transfer (no
// counter side effects; the transfer accounts its own dedup totals).
func (st *ImageStore) HasChunk(hash uint64) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	_, ok := st.chunks[hash]
	return ok
}

// WarmPages reports how many of the image's stored data pages are already
// resident by content — the portion of a transfer that dedup would skip if
// the image were shipped here now.
func (st *ImageStore) WarmPages(img *Image) int {
	infos := img.RunInfos()
	st.mu.Lock()
	defer st.mu.Unlock()
	warm := 0
	for _, ri := range infos {
		if ri.Kind != RunData {
			continue
		}
		if _, ok := st.chunks[ri.Hash]; ok {
			warm += ri.StoredPages
		}
	}
	return warm
}

// noteAdopted counts frames handed to a child by a cached restore.
func (st *ImageStore) noteAdopted(n int) {
	st.mu.Lock()
	st.adopted += int64(n)
	st.publishLocked()
	st.mu.Unlock()
}

// noteInsertFailure counts a cache-population side effect that was rolled
// back (the restore it rode on still succeeded).
func (st *ImageStore) noteInsertFailure() {
	st.mu.Lock()
	st.insertFailures++
	st.publishLocked()
	st.mu.Unlock()
}

// Insert makes the image resident: every data run not already cached gets
// freshly allocated cache frames, which take the image's pages by
// reference (Memory.WritePage) and are transferred to dom_cow under the
// cache's reference. The modelled copy-in is charged to the meter (one
// PageCopy per stored page plus the allocation and one PageShare per
// frame). Inserting an already-resident image only refreshes its LRU
// position. On any failure — allocation, or the toolstack/cache-insert
// fault point, which fires after the new chunks are built but before they
// are committed — everything allocated by this call is released and the
// store is exactly as before.
func (st *ImageStore) Insert(img *Image, meter *vclock.Meter) error {
	img.ensureHashed()
	key := img.key
	st.mu.Lock()
	defer st.mu.Unlock()
	if ci, ok := st.images[key]; ok {
		st.order++
		ci.lastUse = st.order
		return nil
	}

	ci := &cachedImage{key: key, npages: img.npages}
	var fresh []*imageChunk // built by this call, uncommitted
	rollback := func() {
		for _, ch := range fresh {
			st.mem.ReleaseN(st.dom, ch.mfns)
		}
	}
	freshAt := make(map[uint64]*imageChunk)
	pages := 0
	for i := range img.runs {
		r := &img.runs[i]
		cr := cachedRun{start: r.start, count: r.count}
		if !r.isAlias && r.pages != nil {
			h := img.infos[i].Hash
			ch := st.chunks[h]
			if ch == nil {
				ch = freshAt[h]
			}
			if ch == nil {
				mfns, err := st.mem.AllocN(st.dom, r.count, meter)
				if err != nil {
					rollback()
					return fmt.Errorf("toolstack: image cache insert: %w", err)
				}
				for j, data := range r.pages {
					if data == nil {
						continue // the frame already reads as zeroes
					}
					if err := st.mem.WritePage(mfns[j], data); err != nil {
						st.mem.ReleaseN(st.dom, mfns)
						rollback()
						return fmt.Errorf("toolstack: image cache insert: %w", err)
					}
					meter.Charge(meter.Costs().PageCopy, 1)
				}
				ch = &imageChunk{hash: h, mfns: mfns}
				fresh = append(fresh, ch)
				freshAt[h] = ch
				pages += r.count
			}
			cr.chunk = ch
		}
		ci.runs = append(ci.runs, cr)
	}

	if err := st.faults.Check(fault.PointCacheInsert); err != nil {
		rollback()
		return err
	}
	// Commit: transfer the fresh chunks to dom_cow (the cache keeps one
	// reference each), then publish. ShareN validates before mutating, so
	// a failure here still rolls back to the pre-insert state.
	for _, ch := range fresh {
		if err := st.mem.ShareN(st.dom, ch.mfns, 1, meter); err != nil {
			rollback()
			return fmt.Errorf("toolstack: image cache insert: %w", err)
		}
	}
	for _, ch := range fresh {
		st.chunks[ch.hash] = ch
	}
	for _, cr := range ci.runs {
		if cr.chunk != nil {
			cr.chunk.refs++
		}
	}
	st.resident += pages
	st.order++
	ci.lastUse = st.order
	st.images[key] = ci
	st.inserts++
	st.evictLocked(key)
	st.publishLocked()
	return nil
}

// evictLocked drops least-recently-used images (never keep) until the
// resident bound holds again.
func (st *ImageStore) evictLocked(keep uint64) {
	if st.maxPages <= 0 {
		return
	}
	for st.resident > st.maxPages && len(st.images) > 1 {
		var victim *cachedImage
		// Deterministic LRU selection: oldest lastUse, lowest key on ties.
		keys := make([]uint64, 0, len(st.images))
		for k := range st.images {
			if k != keep {
				keys = append(keys, k)
			}
		}
		if len(keys) == 0 {
			return
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		for _, k := range keys {
			ci := st.images[k]
			if victim == nil || ci.lastUse < victim.lastUse {
				victim = ci
			}
		}
		st.dropLocked(victim)
		st.evictions++
	}
}

// dropLocked removes one cached image, releasing the cache's reference on
// every chunk no other image still uses.
func (st *ImageStore) dropLocked(ci *cachedImage) {
	for _, cr := range ci.runs {
		if cr.chunk == nil {
			continue
		}
		cr.chunk.refs--
		if cr.chunk.refs == 0 {
			st.mem.ReleaseN(st.dom, cr.chunk.mfns)
			st.resident -= len(cr.chunk.mfns)
			delete(st.chunks, cr.chunk.hash)
		}
	}
	delete(st.images, ci.key)
}

// Drop evicts one image by content, releasing its chunks' cache
// references. It reports whether the image was resident.
func (st *ImageStore) Drop(img *Image) bool {
	key := img.CacheKey()
	st.mu.Lock()
	defer st.mu.Unlock()
	ci, ok := st.images[key]
	if !ok {
		return false
	}
	st.dropLocked(ci)
	st.evictions++
	st.publishLocked()
	return true
}

// Flush evicts everything.
func (st *ImageStore) Flush() {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := make([]uint64, 0, len(st.images))
	for k := range st.images {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		st.dropLocked(st.images[k])
		st.evictions++
	}
	st.publishLocked()
}
