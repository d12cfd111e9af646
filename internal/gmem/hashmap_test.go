package gmem

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"nephele/internal/obs"
)

// flatMem is a MemIO over a plain byte slice with a bump heap — the
// minimal substrate for exercising the map independently of guests and
// processes.
type flatMem struct {
	data []byte
	heap *Heap
}

func newFlatMem(bytes int) *flatMem {
	return &flatMem{data: make([]byte, bytes), heap: NewHeap(16, GAddr(bytes))}
}

func (f *flatMem) Alloc(size int) (GAddr, error) { return f.heap.Alloc(size) }
func (f *flatMem) Free(addr GAddr) error         { return f.heap.Free(addr) }
func (f *flatMem) ReadAt(addr GAddr, buf []byte) error {
	if int(addr)+len(buf) > len(f.data) {
		return errors.New("flat: out of range")
	}
	copy(buf, f.data[addr:])
	return nil
}
func (f *flatMem) WriteAt(_ obs.OpCtx, addr GAddr, buf []byte) error {
	if int(addr)+len(buf) > len(f.data) {
		return errors.New("flat: out of range")
	}
	copy(f.data[addr:], buf)
	return nil
}

var _ MemIO = (*flatMem)(nil)

func TestHashMapBasicsOnFlatMem(t *testing.T) {
	m, err := NewHashMap(newFlatMem(1<<20), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Put(obs.OpCtx{}, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
	if _, err := m.Get("missing"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("missing: %v", err)
	}
	if err := m.Delete(obs.OpCtx{}, "k"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(obs.OpCtx{}, "k"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := NewHashMap(newFlatMem(4096), 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

func TestHashMapOverwritePathsOnFlatMem(t *testing.T) {
	m, _ := NewHashMap(newFlatMem(1<<20), 4)
	m.Put(obs.OpCtx{}, "key", []byte("initial-long-value"))
	// Shrink in place.
	if err := m.Put(obs.OpCtx{}, "key", []byte("s")); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Get("key"); string(got) != "s" {
		t.Fatalf("shrunk = %q", got)
	}
	// Grow (realloc).
	if err := m.Put(obs.OpCtx{}, "key", []byte("much-much-much-longer-replacement")); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Get("key"); string(got) != "much-much-much-longer-replacement" {
		t.Fatalf("grown = %q", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestHashMapRangeOnFlatMem(t *testing.T) {
	m, _ := NewHashMap(newFlatMem(1<<20), 4)
	for i := 0; i < 20; i++ {
		m.Put(obs.OpCtx{}, fmt.Sprintf("k%02d", i), []byte{byte(i)})
	}
	seen := map[string]byte{}
	if err := m.Range(func(k string, v []byte) bool {
		seen[k] = v[0]
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("Range saw %d", len(seen))
	}
	count := 0
	m.Range(func(string, []byte) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop saw %d", count)
	}
}

func TestHashMapCloneForSharesStorage(t *testing.T) {
	fm := newFlatMem(1 << 20)
	m, _ := NewHashMap(fm, 8)
	m.Put(obs.OpCtx{}, "shared", []byte("value"))
	// CloneFor over the same storage (true sharing, not COW here)
	// resolves the same entries.
	m2 := m.CloneFor(fm)
	got, err := m2.Get("shared")
	if err != nil || string(got) != "value" {
		t.Fatalf("clone Get = %q, %v", got, err)
	}
	if m2.Len() != 1 {
		t.Fatalf("clone Len = %d", m2.Len())
	}
}

func TestHashMapHeapExhaustion(t *testing.T) {
	m, err := NewHashMap(newFlatMem(2048), 8)
	if err != nil {
		t.Fatal(err)
	}
	var firstErr error
	for i := 0; i < 1000 && firstErr == nil; i++ {
		firstErr = m.Put(obs.OpCtx{}, fmt.Sprintf("key-%d", i), make([]byte, 64))
	}
	if !errors.Is(firstErr, ErrHeapFull) {
		t.Fatalf("exhaustion error = %v", firstErr)
	}
}

func TestHashMapDeleteSplicesChainsProperty(t *testing.T) {
	// Property: delete any subset from a single-bucket map; survivors
	// stay retrievable.
	f := func(present [12]bool) bool {
		m, err := NewHashMap(newFlatMem(1<<20), 1)
		if err != nil {
			return false
		}
		for i := range present {
			if m.Put(obs.OpCtx{}, fmt.Sprintf("key-%d", i), []byte{byte(i)}) != nil {
				return false
			}
		}
		for i, keep := range present {
			if !keep {
				if m.Delete(obs.OpCtx{}, fmt.Sprintf("key-%d", i)) != nil {
					return false
				}
			}
		}
		for i, keep := range present {
			v, err := m.Get(fmt.Sprintf("key-%d", i))
			if keep {
				if err != nil || v[0] != byte(i) {
					return false
				}
			} else if err == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFnv32Distribution(t *testing.T) {
	// Hash sanity: no bucket starves for sequential keys.
	counts := make([]int, 8)
	for i := 0; i < 800; i++ {
		counts[fnv32(fmt.Sprintf("key:%06d", i))%8]++
	}
	for b, c := range counts {
		if c == 0 {
			t.Fatalf("bucket %d empty: %v", b, counts)
		}
	}
}
