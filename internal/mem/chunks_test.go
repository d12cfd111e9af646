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

// checkChunks asserts the frame table's one invariant on every shard of the
// current layout — the table covers exactly the chunks the watermark
// reaches into, and every one of them but the shard's first is whole — and
// the shard struct's cache-line padding.
func checkChunks(t *testing.T, m *Memory) {
	t.Helper()
	if sz := unsafe.Sizeof(shard{}); sz%128 != 0 {
		t.Fatalf("shard is %d bytes, want a multiple of 128", sz)
	}
	lay := m.lay.Load()
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
	lay := m.lay.Load()
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

// TestRestrideAcrossChunkEdges re-strides a pool whose shards hold several
// chunks of frames with holes in every one — so restripe moves frames
// between tables of different chunk counts and refills free stacks from
// every chunk — while another domain keeps allocating and releasing, and
// requires every owner, sharer count and content byte to survive, the chunk
// invariant to hold in every layout, and two pools in the same state to
// allocate the same frames afterwards. Run with -race.
func TestRestrideAcrossChunkEdges(t *testing.T) {
	build := func() (*Memory, []MFN) {
		m := New(8 * frameChunk * PageSize) // 8 shards of one chunk
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
		return m, kept
	}
	m, kept := build()
	doms := []DomID{7, 9, DomIDCOW}
	before := capturePoolState(t, m, doms)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			mfns, err := m.AllocN(9, 300, nil)
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
	counts := []int{1, 4, 2, 16, 1, 8, 2, 32, 8}
	for _, n := range counts {
		if err := m.Restride(n); err != nil {
			t.Fatal(err)
		}
		var tag [8]byte
		for _, mfn := range kept[:200] {
			if err := m.Read(mfn, 0, tag[:]); err != nil || binary.LittleEndian.Uint64(tag[:]) != uint64(mfn)+1 {
				t.Fatalf("frame %d after Restride(%d): %x, %v", mfn, n, tag, err)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkChunks(t, m)
	if after := capturePoolState(t, m, doms); !reflect.DeepEqual(before, after) {
		t.Fatalf("pool state changed: free %d/%d shared %d/%d used %v/%v",
			before.Free, after.Free, before.Shared, after.Shared, before.UsedBy, after.UsedBy)
	}

	// Canonical rebuild: a twin that never saw the concurrent allocator and
	// went straight to the final layout hands out the same frames.
	twin, _ := build()
	for _, n := range []int{1, 8} {
		if err := m.Restride(n); err != nil {
			t.Fatal(err)
		}
		if err := twin.Restride(n); err != nil {
			t.Fatal(err)
		}
		checkChunks(t, m)
		a, errA := m.AllocN(9, 2*frameChunk, nil)
		b, errB := twin.AllocN(9, 2*frameChunk, nil)
		if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
			t.Fatalf("after Restride(%d) the twins allocate differently (%v, %v)", n, errA, errB)
		}
		if err := m.ReleaseN(9, a); err != nil {
			t.Fatal(err)
		}
		if err := twin.ReleaseN(9, b); err != nil {
			t.Fatal(err)
		}
	}
}
