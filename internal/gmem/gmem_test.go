package gmem

import (
	"errors"
	"testing"
	"testing/quick"

	"nephele/internal/mem"
	"nephele/internal/obs"
)

func TestHeapAllocFree(t *testing.T) {
	h := NewHeap(16, 64*1024)
	a, err := h.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if a == NilAddr {
		t.Fatal("nil address returned")
	}
	b, _ := h.Alloc(100)
	if a == b {
		t.Fatal("duplicate addresses")
	}
	// Both rounded to the 128 class.
	if h.LiveBytes() != 256 {
		t.Fatalf("LiveBytes = %d, want 256", h.LiveBytes())
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if h.LiveBytes() != 128 {
		t.Fatalf("LiveBytes after free = %d", h.LiveBytes())
	}
	// Freed chunk is reused for the same class.
	c, _ := h.Alloc(128)
	if c != a {
		t.Fatalf("free-list reuse failed: got %#x, want %#x", c, a)
	}
}

func TestHeapBadSizes(t *testing.T) {
	h := NewHeap(16, 4096)
	if _, err := h.Alloc(0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Alloc(0): %v", err)
	}
	if _, err := h.Alloc(-5); !errors.Is(err, ErrBadSize) {
		t.Fatalf("Alloc(-5): %v", err)
	}
}

func TestHeapExhaustion(t *testing.T) {
	h := NewHeap(16, 1024)
	var got []GAddr
	for {
		a, err := h.Alloc(256)
		if err != nil {
			if !errors.Is(err, ErrHeapFull) {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		got = append(got, a)
	}
	if len(got) == 0 || len(got) > 4 {
		t.Fatalf("allocated %d chunks from 1008 bytes", len(got))
	}
}

func TestHeapLargeAllocation(t *testing.T) {
	h := NewHeap(16, 1<<20)
	a, err := h.Alloc(100 * 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if h.LiveBytes() != 0 {
		t.Fatalf("LiveBytes after large free = %d", h.LiveBytes())
	}
}

func TestHeapFreeUnknown(t *testing.T) {
	h := NewHeap(16, 4096)
	if err := h.Free(GAddr(0x999)); !errors.Is(err, ErrNotOwned) {
		t.Fatalf("Free(unknown): %v", err)
	}
}

func TestHeapZeroNeverHandedOut(t *testing.T) {
	h := NewHeap(0, 1<<20)
	for i := 0; i < 100; i++ {
		a, err := h.Alloc(16)
		if err != nil {
			t.Fatal(err)
		}
		if a == NilAddr {
			t.Fatal("heap handed out address 0")
		}
	}
}

func TestHeapClone(t *testing.T) {
	h := NewHeap(16, 1<<20)
	a, _ := h.Alloc(64)
	h.Free(a)
	b, _ := h.Alloc(128)
	c := h.Clone()
	// The clone can reuse the parent's free list without affecting it.
	ca, _ := c.Alloc(64)
	if ca != a {
		t.Fatalf("clone free list lost: got %#x, want %#x", ca, a)
	}
	pa, _ := h.Alloc(64)
	if pa != a {
		t.Fatalf("parent free list affected by clone: got %#x", pa)
	}
	if err := c.Free(b); err != nil {
		t.Fatal("clone does not know parent's live chunk")
	}
}

func TestHeapNoOverlapProperty(t *testing.T) {
	// Property: live chunks never overlap.
	f := func(sizes []uint16) bool {
		h := NewHeap(16, 1<<22)
		type chunk struct {
			addr GAddr
			size int
		}
		var live []chunk
		for _, s := range sizes {
			size := int(s%5000) + 1
			a, err := h.Alloc(size)
			if err != nil {
				continue
			}
			for _, c := range live {
				if a < c.addr+GAddr(c.size) && c.addr < a+GAddr(size) {
					return false
				}
			}
			live = append(live, chunk{a, size})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// fakeSpace implements spaceIO over a flat byte array for accessor tests.
type fakeSpace struct {
	data []byte
}

func (f *fakeSpace) Pages() int { return len(f.data) / mem.PageSize }
func (f *fakeSpace) Read(pfn mem.PFN, off int, buf []byte) error {
	copy(buf, f.data[int(pfn)*mem.PageSize+off:])
	return nil
}
func (f *fakeSpace) WriteOp(_ obs.OpCtx, pfn mem.PFN, off int, buf []byte) error {
	copy(f.data[int(pfn)*mem.PageSize+off:], buf)
	return nil
}

func TestGuestAccessorsSpanPages(t *testing.T) {
	fs := &fakeSpace{data: make([]byte, 3*mem.PageSize)}
	// Write 100 bytes straddling the first page boundary.
	payload := make([]byte, 100)
	for i := range payload {
		payload[i] = byte(i)
	}
	addr := GAddr(mem.PageSize - 50)
	if err := WriteGuest(obs.OpCtx{}, fs, addr, payload); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100)
	if err := ReadGuest(fs, addr, got); err != nil {
		t.Fatal(err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
}

func TestIntCodecs(t *testing.T) {
	b := make([]byte, 8)
	PutU64(b, 0x1122334455667788)
	if GetU64(b) != 0x1122334455667788 {
		t.Fatal("u64 round trip failed")
	}
	PutU32(b, 0xDEADBEEF)
	if GetU32(b) != 0xDEADBEEF {
		t.Fatal("u32 round trip failed")
	}
}
