package devices

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"nephele/internal/fault"
	"nephele/internal/fnv1a"
	"nephele/internal/vclock"
)

// The vbd block device demonstrates §5.3's "supporting new device types"
// extension point: a paravirtualized disk whose backend serves a read-only
// base image shared by the whole family plus a per-domain copy-on-write
// view of written sectors. The base image itself is stored as
// content-hashed chunks in a BaseStore, so backends built over identical
// (or partially identical) images share the bytes once across every VM on
// the host — the E2B/Firecracker layout. The per-domain view is a COW
// chain: a private dirty map on top of a stack of immutable frozen layers
// inherited at clone time, so cloning is O(1) in the number of dirty
// sectors — block-level COW mirroring the memory-level COW of the address
// space.

// SectorSize is the vbd transfer unit.
const SectorSize = 512

// BaseChunkSectors is the base-image interning granularity: 128 sectors
// (64 KiB), the build-system chunk size used by real snapshot fleets.
const BaseChunkSectors = 128

// Vbd errors.
var (
	ErrBadSector = errors.New("devices: sector out of range")
	ErrNoVbd     = errors.New("devices: no such vbd")
)

// BaseStore interns read-only base-image chunks by content hash, shared
// by every backend built over it. Identical chunks — empty regions,
// repeated filesystem blocks, the same distro image reused by another
// backend — are stored once.
type BaseStore struct {
	mu     sync.Mutex
	chunks map[uint64][]byte
	reused int // intern calls answered by an existing chunk
}

// NewBaseStore creates an empty chunk store.
func NewBaseStore() *BaseStore {
	return &BaseStore{chunks: make(map[uint64][]byte)}
}

// intern stores one fixed-size chunk (copying it) and returns its content
// hash; an identical chunk already present is reused. Hash collisions are
// resolved by deterministic linear probing on the verified bytes.
func (st *BaseStore) intern(chunk []byte) uint64 {
	h := fnv1a.Bytes(fnv1a.Offset, chunk)
	st.mu.Lock()
	defer st.mu.Unlock()
	for {
		got, ok := st.chunks[h]
		if !ok {
			st.chunks[h] = append([]byte(nil), chunk...)
			return h
		}
		if string(got) == string(chunk) {
			st.reused++
			return h
		}
		h++
	}
}

// chunk returns the stored bytes of a hash (nil if unknown).
func (st *BaseStore) chunk(h uint64) []byte {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.chunks[h]
}

// Stats reports the interning effectiveness: distinct chunks resident,
// bytes they hold, and how many intern calls were deduplicated.
func (st *BaseStore) Stats() (chunks, bytes, reused int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, c := range st.chunks {
		bytes += len(c)
	}
	return len(st.chunks), bytes, st.reused
}

// vbdLayer is one immutable overlay layer of a COW chain: the dirty map of
// some ancestor, frozen at the moment it was cloned. Layers are shared by
// pointer between every descendant and never written again.
type vbdLayer struct {
	sectors map[uint64][]byte
}

// Vbd is one virtual block device instance (one domain's view): a private
// dirty map over the frozen chain over the shared base.
type Vbd struct {
	mu sync.Mutex

	DomID uint32
	Index int

	backend *VbdBackend
	// dirty maps sector -> contents written by this instance since it was
	// created or last cloned from; absent sectors fall through the frozen
	// chain (newest first) and then the shared base image.
	dirty  map[uint64][]byte
	frozen []*vbdLayer // immutable, oldest first
	state  XenbusState

	reads, writes int
}

// Sectors reports the device size in sectors.
func (v *Vbd) Sectors() uint64 {
	return uint64(v.backend.size) / SectorSize
}

// State reports the Xenbus state.
func (v *Vbd) State() XenbusState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

// lookupLocked resolves one sector through the COW chain: dirty map, then
// frozen layers newest to oldest, then nil (read the base).
func (v *Vbd) lookupLocked(sector uint64) []byte {
	if data, ok := v.dirty[sector]; ok {
		return data
	}
	for i := len(v.frozen) - 1; i >= 0; i-- {
		if data, ok := v.frozen[i].sectors[sector]; ok {
			return data
		}
	}
	return nil
}

// OverlaySectors reports how many distinct sectors this instance's view
// has privatized away from the base — its dirty map plus every frozen
// layer it inherited.
func (v *Vbd) OverlaySectors() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	seen := make(map[uint64]struct{}, len(v.dirty))
	for s := range v.dirty {
		seen[s] = struct{}{}
	}
	for _, l := range v.frozen {
		for s := range l.sectors {
			seen[s] = struct{}{}
		}
	}
	return len(seen)
}

// Layers reports the frozen-chain depth (tests and stats).
func (v *Vbd) Layers() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.frozen)
}

// Stats reports request counters.
func (v *Vbd) Stats() (reads, writes int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reads, v.writes
}

// ReadSector returns one sector, resolving the COW chain before the base.
func (v *Vbd) ReadSector(sector uint64) ([]byte, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StateConnected {
		return nil, ErrNotConnected
	}
	if sector >= v.Sectors() {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadSector, sector, v.Sectors())
	}
	v.reads++
	if data := v.lookupLocked(sector); data != nil {
		return append([]byte(nil), data...), nil
	}
	return v.backend.readBaseSector(sector), nil
}

// WriteSector stores one sector into the private dirty map (never touching
// a frozen layer or the shared base), charging one block-COW page copy the
// first time this view privatizes a sector.
func (v *Vbd) WriteSector(sector uint64, data []byte, meter *vclock.Meter) error {
	if len(data) != SectorSize {
		return fmt.Errorf("devices: vbd write of %d bytes, want %d", len(data), SectorSize)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.state != StateConnected {
		return ErrNotConnected
	}
	if sector >= v.Sectors() {
		return fmt.Errorf("%w: %d of %d", ErrBadSector, sector, v.Sectors())
	}
	if v.lookupLocked(sector) == nil {
		meter.Charge(meter.Costs().PageCopy, 1)
	}
	v.dirty[sector] = append([]byte(nil), data...)
	v.writes++
	return nil
}

// Modified returns this view's sectors that differ from the base — the
// flattened COW chain, newest data winning — in ascending sector order.
// This is the commit path: a sandbox manager reads it to write a
// sandbox's dirty blocks back out before destroying it.
func (v *Vbd) Modified() (sectors []uint64, data [][]byte) {
	v.mu.Lock()
	defer v.mu.Unlock()
	flat := make(map[uint64][]byte)
	for _, l := range v.frozen {
		for s, d := range l.sectors {
			flat[s] = d
		}
	}
	for s, d := range v.dirty {
		flat[s] = d
	}
	sectors = make([]uint64, 0, len(flat))
	for s := range flat {
		sectors = append(sectors, s)
	}
	sort.Slice(sectors, func(i, j int) bool { return sectors[i] < sectors[j] })
	data = make([][]byte, len(sectors))
	for i, s := range sectors {
		data[i] = append([]byte(nil), flat[s]...)
	}
	return sectors, data
}

// Close moves the device to Closed.
func (v *Vbd) Close() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.state = StateClosed
}

// VbdBackend is the Dom0 block backend: one base image (content-hashed
// chunks in a BaseStore, possibly shared with other backends) plus
// per-domain device instances.
type VbdBackend struct {
	mu     sync.Mutex
	store  *BaseStore
	base   []uint64 // chunk hash per BaseChunkSectors-sized stretch
	size   int      // base image bytes (whole sectors); immutable
	vbds   map[devKey]*Vbd
	faults *fault.Registry
}

// NewVbdBackend creates a backend over a base image (padded to whole
// sectors) with a private chunk store.
func NewVbdBackend(base []byte) *VbdBackend {
	return NewVbdBackendShared(base, NewBaseStore())
}

// NewVbdBackendShared creates a backend whose base chunks are interned
// into a shared store: backends over identical images share every chunk,
// backends over related images share the identical stretches.
func NewVbdBackendShared(base []byte, store *BaseStore) *VbdBackend {
	if rem := len(base) % SectorSize; rem != 0 {
		base = append(base, make([]byte, SectorSize-rem)...)
	}
	b := &VbdBackend{store: store, size: len(base), vbds: make(map[devKey]*Vbd)}
	const chunkBytes = BaseChunkSectors * SectorSize
	for off := 0; off < len(base); off += chunkBytes {
		chunk := base[off:min(off+chunkBytes, len(base))]
		if len(chunk) < chunkBytes { // final partial chunk, zero-padded
			padded := make([]byte, chunkBytes)
			copy(padded, chunk)
			chunk = padded
		}
		b.base = append(b.base, store.intern(chunk)) // intern copies on first insert
	}
	return b
}

// Store returns the backend's chunk store (for sharing and stats).
func (b *VbdBackend) Store() *BaseStore { return b.store }

// readBaseSector reads one sector out of the interned base chunks.
func (b *VbdBackend) readBaseSector(sector uint64) []byte {
	chunk := b.store.chunk(b.base[sector/BaseChunkSectors])
	off := (sector % BaseChunkSectors) * SectorSize
	return append([]byte(nil), chunk[off:off+SectorSize]...)
}

// SetFaults installs a fault-injection registry on the clone path (tests).
func (b *VbdBackend) SetFaults(r *fault.Registry) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.faults = r
}

// Create is the boot path: a fresh device with an empty view.
func (b *VbdBackend) Create(domid uint32, index int, meter *vclock.Meter) *Vbd {
	v := &Vbd{
		DomID:   domid,
		Index:   index,
		backend: b,
		dirty:   make(map[uint64][]byte),
		state:   StateConnected,
	}
	b.mu.Lock()
	b.vbds[devKey{domid, index}] = v
	b.mu.Unlock()
	meter.Charge(meter.Costs().BackendCreate, 1)
	return v
}

// Clone is the second-stage path: the child shares the base and inherits
// the parent's view as of clone time — coming up Connected without
// negotiation. The parent's dirty map is frozen into an immutable layer
// both sides reference from now on (the parent starts a fresh dirty map),
// so the clone is O(1) in the number of dirty sectors: no bytes move,
// only the device-state clone is charged.
func (b *VbdBackend) Clone(parent, child uint32, index int, meter *vclock.Meter) (*Vbd, error) {
	b.mu.Lock()
	faults := b.faults
	pv, ok := b.vbds[devKey{parent, index}]
	b.mu.Unlock()
	if err := faults.Check(fault.PointDevVbdClone); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %d/%d", ErrNoVbd, parent, index)
	}
	pv.mu.Lock()
	if len(pv.dirty) > 0 {
		pv.frozen = append(pv.frozen, &vbdLayer{sectors: pv.dirty})
		pv.dirty = make(map[uint64][]byte)
	}
	chain := make([]*vbdLayer, len(pv.frozen))
	copy(chain, pv.frozen)
	pv.mu.Unlock()
	cv := &Vbd{
		DomID:   child,
		Index:   index,
		backend: b,
		dirty:   make(map[uint64][]byte),
		frozen:  chain,
		state:   StateConnected,
	}
	b.mu.Lock()
	b.vbds[devKey{child, index}] = cv
	b.mu.Unlock()
	meter.Charge(meter.Costs().CloneDeviceState, 1)
	return cv, nil
}

// Vbd looks a device up.
func (b *VbdBackend) Vbd(domid uint32, index int) (*Vbd, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.vbds[devKey{domid, index}]
	if !ok {
		return nil, fmt.Errorf("%w: %d/%d", ErrNoVbd, domid, index)
	}
	return v, nil
}

// Remove tears a device down, reporting whether it existed.
func (b *VbdBackend) Remove(domid uint32, index int) bool {
	b.mu.Lock()
	v, ok := b.vbds[devKey{domid, index}]
	delete(b.vbds, devKey{domid, index})
	b.mu.Unlock()
	if ok {
		v.Close()
	}
	return ok
}

// Count reports live devices.
func (b *VbdBackend) Count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.vbds)
}
