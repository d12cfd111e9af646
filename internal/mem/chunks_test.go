package mem

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"
)

// frameChunk is the frame table's chunk size in a pool whose shards are at
// least that large.
const frameChunk = 1 << frameChunkShift

// checkChunks asserts the frame table's one invariant on every shard — the
// table covers exactly the chunks the watermark
// reaches into, and every one of them but the shard's first is whole — and
// the shard struct's cache-line padding.
func checkChunks(t *testing.T, m *Memory) {
	t.Helper()
	if sz := unsafe.Sizeof(shard{}); sz%128 != 0 {
		t.Fatalf("shard is %d bytes, want a multiple of 128", sz)
	}
	lay := m.lay
	chunk := 1 << lay.cshift
	for si := range lay.shards {
		sh := &lay.shards[si]
		base := int(sh.lo >> lay.cshift)
		for k := 0; k*chunk < sh.size; k++ {
			got, want := len(lay.chunks[base+k]), 0
			switch {
			case k*chunk >= sh.watermark:
			case k == 0 && sh.watermark < chunk:
				want = sh.watermark
			default:
				want = min(chunk, sh.size-k*chunk)
			}
			if got != want {
				t.Fatalf("shard %d (watermark %d) chunk %d has %d frames, want %d", si, sh.watermark, k, got, want)
			}
		}
	}
}

// TestFrameTableGrowsInPlace grows one shard from nothing to 64 Ki frames
// in clone-sized steps (265 frames: what one child of the Fig. 4 guest
// takes) and requires the allocator to have been asked for at most 1.1
// times the final table — an append-grown slice asks for 6.5 times — with no
// chunk after the first ever reallocated.
func TestFrameTableGrowsInPlace(t *testing.T) {
	m := New(16 * 65536 * PageSize)
	lay := m.lay
	sh := &lay.shards[0]
	if sh.size != 65536 {
		t.Fatalf("shard of %d frames, test assumes 65536", sh.size)
	}
	out := make([]MFN, 0, 265)
	at := map[int]*frame{} // chunk index → its first frame, when first seen
	chunks := lay.chunks[sh.lo>>lay.cshift:][:sh.size>>lay.cshift]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for sh.watermark < sh.size {
		sh.mu.Lock()
		out = out[:0]
		lay.takeLocked(m, sh, 1, 265, &out)
		sh.mu.Unlock()
		for k := 1; k < len(chunks) && chunks[k] != nil; k++ {
			if at[k] == nil {
				at[k] = &chunks[k][0]
			} else if at[k] != &chunks[k][0] {
				t.Fatalf("chunk %d moved while the table grew to %d frames", k, sh.watermark)
			}
		}
	}
	runtime.ReadMemStats(&after)
	checkChunks(t, m)
	final := uint64(sh.size) * uint64(unsafe.Sizeof(frame{}))
	if got := after.TotalAlloc - before.TotalAlloc; got > final*11/10 {
		t.Fatalf("growing the table to %d bytes allocated %d (%.2fx), want <= 1.1x", final, got, float64(got)/float64(final))
	}
	for idx := 0; idx < sh.size; idx++ {
		if f := lay.frame(sh.lo + MFN(idx)); !f.inUse || f.owner != 1 || f.refcount != 1 {
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

// TestChunkHolesUnderConcurrentAlloc builds a two-shard pool whose shards
// hold several chunks of frames with holes in every one — freed, shared and
// written frames side by side — and lets another domain keep allocating into
// the holes and releasing again, across chunk and shard edges, while the
// frames that stay are read back. Every owner, sharer count and content byte
// must survive, the chunk invariant must hold, and once the other domain is
// gone the pool state is what it was. Run with -race.
func TestChunkHolesUnderConcurrentAlloc(t *testing.T) {
	m := newSharded(8*frameChunk*PageSize, 2) // 2 shards of 4 chunks
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
			// More than the holes of dom 9's home shard: the run spills over
			// the shard edge and past the watermark.
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
