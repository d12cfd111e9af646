package gmem

import (
	"errors"
	"fmt"

	"nephele/internal/obs"
)

// HashMap is a chained hash table whose buckets, entries, keys and values
// all live in guest pages. Because every byte of state is in the simulated
// address space, a forked child sees a true snapshot of the map through
// family-shared frames — exactly the property Redis relies on when it
// forks to serialize its database (§7.1).
//
// Entry layout in guest memory:
//
//	next   8 bytes (GAddr of next entry in the bucket, 0 = end)
//	keyLen 4 bytes
//	valLen 4 bytes
//	key    keyLen bytes
//	value  valLen bytes (in place when it fits the chunk; the entry is
//	       reallocated on growth)
const entryHeader = 16

// ErrKeyNotFound reports a missing key.
var ErrKeyNotFound = errors.New("gmem: key not found")

// MemIO is the memory interface a HashMap operates over: the unikernel
// Kernel and the Linux-process baseline both satisfy it.
type MemIO interface {
	Alloc(size int) (GAddr, error)
	Free(addr GAddr) error
	ReadAt(addr GAddr, buf []byte) error
	WriteAt(ctx obs.OpCtx, addr GAddr, buf []byte) error
}

// HashMap state: the bucket array is one guest allocation of 8*buckets
// bytes; the entry count is runtime metadata duplicated at fork with the
// rest of the kernel/process metadata.
type HashMap struct {
	k       MemIO
	buckets int
	table   GAddr
	count   int
}

// NewHashMap allocates a map with the given bucket count in k's heap.
func NewHashMap(k MemIO, buckets int) (*HashMap, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("gmem: bad bucket count %d", buckets)
	}
	table, err := k.Alloc(8 * buckets)
	if err != nil {
		return nil, err
	}
	zero := make([]byte, 8*buckets)
	if err := k.WriteAt(obs.OpCtx{}, table, zero); err != nil {
		return nil, err
	}
	return &HashMap{k: k, buckets: buckets, table: table}, nil
}

// CloneFor rebinds the map metadata to a forked child runtime. The bucket
// array and entries are already visible through the child's COW view.
func (m *HashMap) CloneFor(ck MemIO) *HashMap {
	return &HashMap{k: ck, buckets: m.buckets, table: m.table, count: m.count}
}

// Len reports the number of keys.
func (m *HashMap) Len() int { return m.count }

func fnv32(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

func (m *HashMap) slotAddr(key string) GAddr {
	return m.table + GAddr(8*(fnv32(key)%uint32(m.buckets)))
}

// readEntry loads an entry header and key.
func (m *HashMap) readEntry(addr GAddr) (next GAddr, key string, valLen int, err error) {
	hdr := make([]byte, entryHeader)
	if err = m.k.ReadAt(addr, hdr); err != nil {
		return
	}
	next = GAddr(GetU64(hdr))
	keyLen := int(GetU32(hdr[8:]))
	valLen = int(GetU32(hdr[12:]))
	kb := make([]byte, keyLen)
	if err = m.k.ReadAt(addr+entryHeader, kb); err != nil {
		return
	}
	key = string(kb)
	return
}

// findEntry walks a bucket for key, returning the entry address and the
// address of the pointer that references it (bucket slot or previous
// entry's next field).
func (m *HashMap) findEntry(key string) (entry, ref GAddr, valLen int, err error) {
	ref = m.slotAddr(key)
	ptr := make([]byte, 8)
	if err = m.k.ReadAt(ref, ptr); err != nil {
		return
	}
	cur := GAddr(GetU64(ptr))
	for cur != NilAddr {
		next, k, vl, e := m.readEntry(cur)
		if e != nil {
			err = e
			return
		}
		if k == key {
			return cur, ref, vl, nil
		}
		ref = cur // next field is at offset 0 of the entry
		cur = next
	}
	return NilAddr, ref, 0, nil
}

// Put inserts or replaces key -> value, charging COW faults to ctx's meter.
func (m *HashMap) Put(ctx obs.OpCtx, key string, value []byte) error {
	entry, ref, oldLen, err := m.findEntry(key)
	if err != nil {
		return err
	}
	if entry != NilAddr {
		if len(value) <= oldLen {
			// Overwrite in place; shrink the recorded length.
			hdr := make([]byte, 4)
			PutU32(hdr, uint32(len(value)))
			if err := m.k.WriteAt(ctx, entry+12, hdr); err != nil {
				return err
			}
			return m.k.WriteAt(ctx, entry+entryHeader+GAddr(len(key)), value)
		}
		// Grows: unlink and reinsert fresh.
		if err := m.unlink(ctx, entry, ref); err != nil {
			return err
		}
		m.count--
	}
	size := entryHeader + len(key) + len(value)
	addr, err := m.k.Alloc(size)
	if err != nil {
		return err
	}
	slot := m.slotAddr(key)
	head := make([]byte, 8)
	if err := m.k.ReadAt(slot, head); err != nil {
		return err
	}
	buf := make([]byte, size)
	PutU64(buf, GetU64(head)) // next = old head
	PutU32(buf[8:], uint32(len(key)))
	PutU32(buf[12:], uint32(len(value)))
	copy(buf[entryHeader:], key)
	copy(buf[entryHeader+len(key):], value)
	if err := m.k.WriteAt(ctx, addr, buf); err != nil {
		return err
	}
	PutU64(head, uint64(addr))
	if err := m.k.WriteAt(ctx, slot, head); err != nil {
		return err
	}
	m.count++
	return nil
}

// Get returns the value for key.
func (m *HashMap) Get(key string) ([]byte, error) {
	entry, _, valLen, err := m.findEntry(key)
	if err != nil {
		return nil, err
	}
	if entry == NilAddr {
		return nil, fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	out := make([]byte, valLen)
	if err := m.k.ReadAt(entry+entryHeader+GAddr(len(key)), out); err != nil {
		return nil, err
	}
	return out, nil
}

// Delete removes key.
func (m *HashMap) Delete(ctx obs.OpCtx, key string) error {
	entry, ref, _, err := m.findEntry(key)
	if err != nil {
		return err
	}
	if entry == NilAddr {
		return fmt.Errorf("%w: %q", ErrKeyNotFound, key)
	}
	if err := m.unlink(ctx, entry, ref); err != nil {
		return err
	}
	m.count--
	return nil
}

// unlink splices an entry out (ref is either a bucket slot or the previous
// entry, whose next pointer is at offset 0 either way) and frees it.
func (m *HashMap) unlink(ctx obs.OpCtx, entry, ref GAddr) error {
	next := make([]byte, 8)
	if err := m.k.ReadAt(entry, next); err != nil {
		return err
	}
	if err := m.k.WriteAt(ctx, ref, next); err != nil {
		return err
	}
	return m.k.Free(entry)
}

// Range visits every key/value pair in unspecified order; fn returning
// false stops the walk. Range reads through the owning kernel's view, so
// on a forked child it iterates the snapshot.
func (m *HashMap) Range(fn func(key string, value []byte) bool) error {
	ptr := make([]byte, 8)
	for b := 0; b < m.buckets; b++ {
		if err := m.k.ReadAt(m.table+GAddr(8*b), ptr); err != nil {
			return err
		}
		cur := GAddr(GetU64(ptr))
		for cur != NilAddr {
			next, key, valLen, err := m.readEntry(cur)
			if err != nil {
				return err
			}
			val := make([]byte, valLen)
			if err := m.k.ReadAt(cur+entryHeader+GAddr(len(key)), val); err != nil {
				return err
			}
			if !fn(key, val) {
				return nil
			}
			cur = next
		}
	}
	return nil
}
