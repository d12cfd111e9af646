package toolstack

import (
	"fmt"
	"sort"

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
// contents hash to it. The chunks one Insert makes sit in one slab, and
// their frames are slices of the one list it allocated.
type imageChunk struct {
	hash uint64
	mfns []mem.MFN
	refs int // cached image runs referencing this chunk
}

// cachedImage is the cache's view of one inserted image.
type cachedImage struct {
	key     uint64
	chunks  []*imageChunk // parallel to the image's runs: nil for zero and alias runs
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
	st.gauges = g
}

// Stats snapshots the cache counters.
func (st *ImageStore) Stats() ImageStoreStats {
	return ImageStoreStats{
		Hits: st.hits, Misses: st.misses,
		Inserts: st.inserts, Evictions: st.evictions,
		InsertFailures: st.insertFailures, AdoptedFrames: st.adopted,
		Images: len(st.images), Chunks: len(st.chunks),
		ResidentPages: st.resident,
	}
}

// publish pushes the counters into the attached registry.
func (st *ImageStore) publish() {
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
	ci, ok := st.images[key]
	if !ok {
		st.misses++
		st.publish()
		return nil
	}
	st.hits++
	st.order++
	ci.lastUse = st.order
	st.publish()
	return ci
}

// Contains reports whether the image is currently resident (no counter
// side effects).
func (st *ImageStore) Contains(img *Image) bool {
	key := img.CacheKey()
	_, ok := st.images[key]
	return ok
}

// HasChunk reports whether a data run with the given content hash is
// resident — the receiver-side dedup query of a cross-host transfer (no
// counter side effects; the transfer accounts its own dedup totals).
func (st *ImageStore) HasChunk(hash uint64) bool {
	_, ok := st.chunks[hash]
	return ok
}

// noteAdopted counts frames handed to a child by a cached restore.
func (st *ImageStore) noteAdopted(n int) {
	st.adopted += int64(n)
	st.publish()
}

// noteInsertFailure counts a cache-population side effect that was rolled
// back (the restore it rode on still succeeded).
func (st *ImageStore) noteInsertFailure() {
	st.insertFailures++
	st.publish()
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
//
// It allocates per insert, not per run: the fresh chunks are counted
// first, then made in one slab, their frames taken with one AllocN (in run
// order, so the MFNs are what one call per run would hand out) and
// transferred with one ShareN.
func (st *ImageStore) Insert(img *Image, meter *vclock.Meter) error {
	ctx := obs.Ctx(meter)
	img.ensureHashed()
	key := img.key
	if ci, ok := st.images[key]; ok {
		st.order++
		ci.lastUse = st.order
		return nil
	}

	ci := &cachedImage{key: key, chunks: make([]*imageChunk, len(img.runs))}
	missing := 0 // data runs with no resident chunk, a bound on the fresh ones
	for i := range img.runs {
		if isDataRun(&img.runs[i]) && st.chunks[img.infos[i].Hash] == nil {
			missing++
		}
	}
	// Fresh chunks enter st.chunks at once, so a later run of this image
	// with the same contents finds its chunk there; rollback takes them out.
	fresh := make([]imageChunk, 0, missing)
	frames := 0
	for i := range img.runs {
		r := &img.runs[i]
		if !isDataRun(r) {
			continue
		}
		h := img.infos[i].Hash
		ch := st.chunks[h]
		if ch == nil {
			fresh = append(fresh, imageChunk{hash: h})
			ch = &fresh[len(fresh)-1]
			st.chunks[h] = ch
			frames += r.Count
		}
		ci.chunks[i] = ch
	}
	var mfns []mem.MFN
	rollback := func(err error) error {
		st.mem.ReleaseN(st.dom, mfns)
		for k := range fresh {
			delete(st.chunks, fresh[k].hash)
		}
		return err
	}
	mfns, err := st.mem.AllocN(ctx, st.dom, frames)
	if err != nil {
		return rollback(fmt.Errorf("toolstack: image cache insert: %w", err))
	}
	stored, off := 0, 0
	for i := range img.runs {
		ch := ci.chunks[i]
		if ch == nil || ch.mfns != nil {
			continue // not a data run, or its chunk has its frames
		}
		r := &img.runs[i]
		ch.mfns = mfns[off : off+r.Count : off+r.Count]
		off += r.Count
		for j, data := range r.Pages {
			if data == nil {
				continue // the frame already reads as zeroes
			}
			if err := st.mem.WritePage(ch.mfns[j], data); err != nil {
				return rollback(fmt.Errorf("toolstack: image cache insert: %w", err))
			}
			stored++
		}
	}
	meter.Charge(meter.Costs().PageCopy, stored)

	if err := st.faults.Check(fault.PointCacheInsert); err != nil {
		return rollback(err)
	}
	// Commit: transfer the fresh frames to dom_cow (the cache keeps one
	// reference each), then publish. ShareN validates before mutating, so
	// a failure here still rolls back to the pre-insert state.
	if err := st.mem.ShareN(ctx, st.dom, mfns, 1); err != nil {
		return rollback(fmt.Errorf("toolstack: image cache insert: %w", err))
	}
	for _, ch := range ci.chunks {
		if ch != nil {
			ch.refs++
		}
	}
	st.resident += frames
	st.order++
	ci.lastUse = st.order
	st.images[key] = ci
	st.inserts++
	st.evict(key)
	st.publish()
	return nil
}

// evict drops least-recently-used images (never keep) until the
// resident bound holds again. Every use takes a fresh st.order, so no two
// images share a lastUse and the oldest is the one victim.
func (st *ImageStore) evict(keep uint64) {
	if st.maxPages <= 0 {
		return
	}
	for st.resident > st.maxPages && len(st.images) > 1 {
		var victim *cachedImage
		for k, ci := range st.images {
			if k != keep && (victim == nil || ci.lastUse < victim.lastUse) {
				victim = ci
			}
		}
		if victim == nil {
			return
		}
		st.drop(victim)
		st.evictions++
	}
}

// drop removes one cached image, releasing the cache's reference on
// every chunk no other image still uses.
func (st *ImageStore) drop(ci *cachedImage) {
	for _, ch := range ci.chunks {
		if ch == nil {
			continue
		}
		ch.refs--
		if ch.refs == 0 {
			st.mem.ReleaseN(st.dom, ch.mfns)
			st.resident -= len(ch.mfns)
			delete(st.chunks, ch.hash)
		}
	}
	delete(st.images, ci.key)
}

// Drop evicts one image by content, releasing its chunks' cache
// references. It reports whether the image was resident.
func (st *ImageStore) Drop(img *Image) bool {
	key := img.CacheKey()
	ci, ok := st.images[key]
	if !ok {
		return false
	}
	st.drop(ci)
	st.evictions++
	st.publish()
	return true
}

// Flush evicts everything.
func (st *ImageStore) Flush() {
	keys := make([]uint64, 0, len(st.images))
	for k := range st.images {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		st.drop(st.images[k])
		st.evictions++
	}
	st.publish()
}
