package mem

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// frameChunk is the frame table's chunk size.
const frameChunk = 1 << frameChunkShift

// checkChunks asserts the frame table's one invariant — the table covers
// exactly the chunks the watermark reaches into, and every one of them but
// the first is whole.
func checkChunks(t *testing.T, m *Memory) {
	t.Helper()
	for k := 0; k*frameChunk < m.total; k++ {
		got, want := len(m.chunks[k]), 0
		switch {
		case k*frameChunk >= m.watermark:
		case k == 0 && m.watermark < frameChunk:
			want = m.watermark
		default:
			want = min(frameChunk, m.total-k*frameChunk)
		}
		if got != want {
			t.Fatalf("watermark %d: chunk %d has %d frames, want %d", m.watermark, k, got, want)
		}
	}
}

// TestFrameTableGrowsInPlace grows a 64 Ki-frame pool from nothing to full
// in clone-sized steps (265 frames: what one child of the Fig. 4 guest
// takes) and requires the allocator to have been asked for at most 1.1
// times the final table — an append-grown slice asks for 6.5 times — with no
// chunk after the first ever reallocated.
func TestFrameTableGrowsInPlace(t *testing.T) {
	m := New(65536 * PageSize)
	out := make([]MFN, 265)
	at := map[int]*frame{} // chunk index → its first frame, when first seen
	chunks := m.chunks
	if len(chunks) != 16 {
		t.Fatalf("%d chunks, test assumes 16", len(chunks))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for m.watermark < m.total {
		if err := allocInto(m, 1, out[:min(len(out), m.total-m.watermark)], nil); err != nil {
			t.Fatal(err)
		}
		for k := 1; k < len(chunks) && chunks[k] != nil; k++ {
			if at[k] == nil {
				at[k] = &chunks[k][0]
			} else if at[k] != &chunks[k][0] {
				t.Fatalf("chunk %d moved while the table grew to %d frames", k, m.watermark)
			}
		}
	}
	runtime.ReadMemStats(&after)
	checkChunks(t, m)
	final := uint64(m.total) * uint64(unsafe.Sizeof(frame{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > final*11/10 {
		t.Fatalf("growing the table to %d bytes allocated %d (%.2fx), want <= 1.1x", final, got, float64(got)/float64(final))
	}
	for idx := 0; idx < m.total; idx++ {
		if f := m.frame(MFN(idx)); !f.inUse() || f.owner != 1 || f.refcount != 1 {
			t.Fatalf("frame %d after growth: %+v", idx, *f)
		}
	}
}

// TestFreeStackChunks: the free stack pops in reverse push order across its
// chunk edges, and going back and forth over an edge allocates nothing once
// the chunk behind it exists.
func TestFreeStackChunks(t *testing.T) {
	var s mfnStack
	const n = 3*mfnStackChunk + 7
	for i := 0; i < n; i++ {
		s.push(MFN(i))
	}
	for i := n - 1; i >= mfnStackChunk-2; i-- {
		if got := s.pop(); got != MFN(i) {
			t.Fatalf("pop %d, want %d", got, i)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 4; i++ {
			s.push(MFN(i))
		}
		for i := 3; i >= 0; i-- {
			if got := s.pop(); got != MFN(i) {
				t.Fatalf("pop %d, want %d", got, i)
			}
		}
	}); allocs != 0 {
		t.Fatalf("crossing a chunk edge allocates %v times", allocs)
	}
	if s.n != mfnStackChunk-2 {
		t.Fatalf("%d entries left, want %d", s.n, mfnStackChunk-2)
	}
}

// TestChunkHolesUnderConcurrentAlloc builds a pool of eight chunks, five of
// them holding frames with holes in every one — freed, shared and written
// frames side by side — and lets another domain keep allocating into the
// holes and releasing again, across chunk edges, while the
// frames that stay are read back. Every owner, sharer count and content byte
// must survive, the chunk invariant must hold, and once the other domain is
// gone the pool state is what it was. Run with -race.
func TestChunkHolesUnderConcurrentAlloc(t *testing.T) {
	m := New(8 * frameChunk * PageSize)
	owned, err := m.AllocN(7, 5*frameChunk+500, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept []MFN
	var tag [8]byte
	for i, mfn := range owned {
		switch {
		case i%5 == 0:
			if err := m.ReleaseN(7, []MFN{mfn}); err != nil {
				t.Fatal(err)
			}
			continue
		case i%7 == 0:
			if err := m.ShareN(7, []MFN{mfn}, 3, nil); err != nil {
				t.Fatal(err)
			}
		}
		binary.LittleEndian.PutUint64(tag[:], uint64(mfn)+1)
		if err := m.Write(mfn, 0, tag[:]); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, mfn)
	}
	doms := []DomID{7, 9, DomIDCOW}
	before := capturePoolState(t, m, doms)

	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// More than the holes: the run spills past the watermark.
			mfns, err := m.AllocN(9, 2*frameChunk, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.ReleaseN(9, mfns); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		for _, mfn := range kept[i%7 : min(len(kept), i%7+200)] {
			if err := m.Read(mfn, 0, tag[:]); err != nil || binary.LittleEndian.Uint64(tag[:]) != uint64(mfn)+1 {
				t.Fatalf("frame %d in round %d: %x, %v", mfn, i, tag, err)
			}
		}
	}
	wg.Wait()
	checkChunks(t, m)
	if after := capturePoolState(t, m, doms); !reflect.DeepEqual(before, after) {
		t.Fatalf("pool state changed: free %d/%d shared %d/%d used %v/%v",
			before.Free, after.Free, before.Shared, after.Shared, before.UsedBy, after.UsedBy)
	}
}

// TestCOWCopyGrowsFirstChunk makes a write fault's private copy the
// allocation that grows, and so moves, the frame table's first chunk: the
// fault must update the source frame where the table holds it afterwards.
// Frames are conserved and the pool audits clean, for a copy away from a
// shared frame and from a pledged one.
func TestCOWCopyGrowsFirstChunk(t *testing.T) {
	for _, c := range []struct {
		name     string
		faulter  DomID
		refcount int // the source's, after the fault
	}{
		{"shared", 2, 1},
		{"pledged", 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := newTestMem(64)
			mfns, err := m.AllocN(1, 2, nil) // the first chunk is exactly two frames
			if err != nil {
				t.Fatal(err)
			}
			src := mfns[0]
			if err := m.Write(src, 0, []byte("clone-time")); err != nil {
				t.Fatal(err)
			}
			release := func() error { return m.ReleaseN(1, []MFN{src}) }
			if c.faulter == 1 {
				err = m.pledgePTEs(ptesOf([]MFN{src}))
				release = func() error { return m.cancelPledged(ptesOf([]MFN{src})) }
			} else {
				err = m.ShareN(1, []MFN{src}, 2, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
			before := &m.chunks[0][0]
			got, err := m.resolveCOW(c.faulter, src, nil)
			if err != nil {
				t.Fatal(err)
			}
			if &m.chunks[0][0] == before {
				t.Fatal("the copy did not move the first chunk")
			}
			if rc, _ := m.Refcount(src); got == src || rc != c.refcount {
				t.Fatalf("fault gave frame %d (source %d), source refcount %d; want a copy and %d", got, src, rc, c.refcount)
			}
			buf := make([]byte, 10)
			if err := m.Read(got, 0, buf); err != nil || string(buf) != "clone-time" {
				t.Fatalf("private copy reads %q, %v", buf, err)
			}
			audit(t, m)
			if err := release(); err != nil {
				t.Fatal(err)
			}
			if err := m.ReleaseN(1, mfns[1:]); err != nil {
				t.Fatal(err)
			}
			if err := m.ReleaseN(c.faulter, []MFN{got}); err != nil {
				t.Fatal(err)
			}
			if m.FreeFrames() != m.TotalFrames() {
				t.Fatalf("%d of %d frames free after releasing everything", m.FreeFrames(), m.TotalFrames())
			}
			audit(t, m)
		})
	}
}

// TestSlotTableGrowsInPlace: a pool that stores no page has no slot table;
// writing pages gives each written frame one slot, which it keeps through
// being freed and handed out again, and once the first chunk is whole no
// chunk of slots moves.
func TestSlotTableGrowsInPlace(t *testing.T) {
	const n = 2*pageChunkMask + 9 // into the third chunk of slots
	m := newTestMem(n)
	mfns, err := m.AllocN(1, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.pages.n != 0 || m.pages.chunks != nil {
		t.Fatalf("no page stored, yet %d slots in %d chunks", m.pages.n, len(m.pages.chunks))
	}
	at := map[int]**[PageSize]byte{}
	for i, mfn := range mfns {
		if err := m.Write(mfn, 0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		for k := range m.pages.chunks {
			if k == 0 && len(m.pages.chunks[0]) < 1<<pageChunkShift {
				continue
			}
			if at[k] == nil {
				at[k] = &m.pages.chunks[k][0]
			} else if at[k] != &m.pages.chunks[k][0] {
				t.Fatalf("slot chunk %d moved at slot %d", k, m.pages.n)
			}
		}
	}
	if m.pages.n != n || cap(m.pages.chunks[0]) != 1<<pageChunkShift {
		t.Fatalf("%d written frames hold %d slots, first chunk %d wide", n, m.pages.n, cap(m.pages.chunks[0]))
	}
	if err := m.ReleaseN(1, mfns); err != nil {
		t.Fatal(err)
	}
	again, err := m.AllocN(2, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, mfn := range again {
		if err := m.Write(mfn, 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	if m.pages.n != n {
		t.Fatalf("rewriting freed frames grew the table to %d slots, want %d", m.pages.n, n)
	}
	audit(t, m)
}
