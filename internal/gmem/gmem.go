// Package gmem provides page-backed guest data structures shared by the
// unikernel runtime (internal/guest) and the Linux-process baseline
// (internal/proc): a tinyalloc-style allocator handing out guest addresses,
// page-spanning accessors, and a hash map whose buckets, entries, keys and
// values all live in simulated pages — so copy-on-write, snapshot and
// density behaviour is real for every byte of application state.
package gmem

import (
	"errors"
	"fmt"

	"nephele/internal/mem"
	"nephele/internal/obs"
)

// GAddr is a guest-virtual byte address (pfn*PageSize + offset). The
// allocator hands these out; the kernel's memory accessors translate them
// through the address space.
type GAddr uint64

// NilAddr is the allocator's null pointer.
const NilAddr GAddr = 0

// Errors.
var (
	ErrHeapFull = errors.New("gmem: heap exhausted")
	ErrBadSize  = errors.New("gmem: bad allocation size")
	ErrNotOwned = errors.New("gmem: address not from this heap")
)

// sizeClasses are the allocator's rounding targets (tinyalloc-like: a
// handful of power-of-two classes with per-class free lists).
var sizeClasses = []int{16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

func classFor(size int) (int, bool) {
	for i, c := range sizeClasses {
		if size <= c {
			return i, true
		}
	}
	return 0, false
}

// Heap is a bump allocator with per-class free lists over the byte range
// [start, limit) of a guest address space. Address 0 is never handed out
// so it can serve as nil. Heap metadata is duplicated into the child at
// fork time (equivalently to living in guest pages, which are COW-shared).
type Heap struct {
	start, limit GAddr
	brk          GAddr
	free         [][]GAddr // per size class
	// chunkClass remembers the class of each live or freed chunk so
	// Free does not need a size argument.
	chunkClass map[GAddr]int
	allocated  int // live bytes, for stats
}

// NewHeap creates a heap over [start, limit).
func NewHeap(start, limit GAddr) *Heap {
	if start == 0 {
		start = GAddr(16) // keep 0 as nil
	}
	return &Heap{
		start:      start,
		limit:      limit,
		brk:        start,
		free:       make([][]GAddr, len(sizeClasses)),
		chunkClass: make(map[GAddr]int),
	}
}

// Alloc returns the guest address of a fresh chunk of at least size bytes.
// Chunks never cross the heap limit; they may cross page boundaries (the
// kernel's accessors handle spanning writes).
func (h *Heap) Alloc(size int) (GAddr, error) {
	if size <= 0 {
		return NilAddr, fmt.Errorf("%w: %d", ErrBadSize, size)
	}
	if size > sizeClasses[len(sizeClasses)-1] {
		// Large allocation: bump directly, rounded to 16 bytes.
		rounded := (size + 15) &^ 15
		if h.brk+GAddr(rounded) > h.limit {
			return NilAddr, ErrHeapFull
		}
		addr := h.brk
		h.brk += GAddr(rounded)
		h.chunkClass[addr] = -rounded // negative marks a large chunk
		h.allocated += rounded
		return addr, nil
	}
	ci, _ := classFor(size)
	if n := len(h.free[ci]); n > 0 {
		addr := h.free[ci][n-1]
		h.free[ci] = h.free[ci][:n-1]
		h.chunkClass[addr] = ci
		h.allocated += sizeClasses[ci]
		return addr, nil
	}
	c := sizeClasses[ci]
	if h.brk+GAddr(c) > h.limit {
		return NilAddr, ErrHeapFull
	}
	addr := h.brk
	h.brk += GAddr(c)
	h.chunkClass[addr] = ci
	h.allocated += c
	return addr, nil
}

// Free returns a chunk to its class free list.
func (h *Heap) Free(addr GAddr) error {
	ci, ok := h.chunkClass[addr]
	if !ok {
		return fmt.Errorf("%w: %#x", ErrNotOwned, addr)
	}
	delete(h.chunkClass, addr)
	if ci < 0 {
		// Large chunk: bytes are not reusable (bump-only), matching
		// tinyalloc's linear-memory simplicity.
		h.allocated += ci
		return nil
	}
	h.free[ci] = append(h.free[ci], addr)
	h.allocated -= sizeClasses[ci]
	return nil
}

// LiveBytes reports currently-allocated bytes.
func (h *Heap) LiveBytes() int { return h.allocated }

// Used reports how much of the heap range has ever been bumped.
func (h *Heap) Used() GAddr { return h.brk - h.start }

// Clone duplicates the allocator metadata for a forked child. The chunk
// contents themselves are in guest pages and travel via COW sharing.
func (h *Heap) Clone() *Heap {
	c := &Heap{
		start:      h.start,
		limit:      h.limit,
		brk:        h.brk,
		free:       make([][]GAddr, len(h.free)),
		chunkClass: make(map[GAddr]int, len(h.chunkClass)),
		allocated:  h.allocated,
	}
	for i := range h.free {
		c.free[i] = append([]GAddr(nil), h.free[i]...)
	}
	for a, ci := range h.chunkClass {
		c.chunkClass[a] = ci
	}
	return c
}

// SpaceIO abstracts the address-space operations the accessors need (the
// concrete implementation is *mem.Space; tests substitute fakes).
type SpaceIO interface {
	Read(pfn mem.PFN, off int, buf []byte) error
	WriteOp(ctx obs.OpCtx, pfn mem.PFN, off int, buf []byte) error
	Pages() int
}

// ReadGuest copies len(buf) bytes at addr from the space, spanning pages.
func ReadGuest(s SpaceIO, addr GAddr, buf []byte) error {
	off := int(addr % mem.PageSize)
	pfn := mem.PFN(addr / mem.PageSize)
	for len(buf) > 0 {
		n := mem.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if err := s.Read(pfn, off, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		pfn++
		off = 0
	}
	return nil
}

// WriteGuest stores buf at addr in the space, spanning pages and taking
// COW faults as they come.
func WriteGuest(ctx obs.OpCtx, s SpaceIO, addr GAddr, buf []byte) error {
	off := int(addr % mem.PageSize)
	pfn := mem.PFN(addr / mem.PageSize)
	for len(buf) > 0 {
		n := mem.PageSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if err := s.WriteOp(ctx, pfn, off, buf[:n]); err != nil {
			return err
		}
		buf = buf[n:]
		pfn++
		off = 0
	}
	return nil
}

// Encoding helpers for guest-memory integers (little endian).

func PutU64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func GetU64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(b[i]) << (8 * i)
	}
	return v
}

func PutU32(b []byte, v uint32) {
	for i := 0; i < 4; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func GetU32(b []byte) uint32 {
	var v uint32
	for i := 0; i < 4; i++ {
		v |= uint32(b[i]) << (8 * i)
	}
	return v
}
