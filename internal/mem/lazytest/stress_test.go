package lazytest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// audit fails t on every frame invariant of m that does not hold.
func audit(t *testing.T, m *mem.Memory) {
	t.Helper()
	if err := m.Audit(); err != nil {
		t.Fatal(err)
	}
}

// TestLazyStressConcurrent is the race stress: several lazy clones of ONE
// parent, each paired with an eager twin cloned back-to-back, while a
// parent writer mutates pages and every pair runs its own demand workload
// concurrently with all the streamers. COW semantics make each pair's
// outcome independent of the writer's timing — a parent write after the
// pair's clone copies away and the family frame keeps the clone-time
// contents — so the pairwise snapshot equality holds under any
// interleaving. Run under -race this is the fault/streamer/writer race
// detector for the whole lazy machinery.
func TestLazyStressConcurrent(t *testing.T) {
	const (
		pages  = 192
		pairs  = 4
		writes = 200
	)
	meta := mem.PTFrameCount(pages) + mem.P2MFrameCount(pages)
	total := pages*(2+3*pairs) + meta*(1+2*pairs) + writes + 256
	m := mem.New(uint64(total) * mem.PageSize)
	parent, err := mem.NewSpace(m, parentDom, pages, vclock.NewMeter(nil))
	if err != nil {
		t.Fatal(err)
	}
	seedR := rand.New(rand.NewSource(42))
	for pfn := 0; pfn < pages; pfn++ {
		if err := parent.Write(mem.PFN(pfn), 0, randBytes(seedR, 32), nil); err != nil {
			t.Fatal(err)
		}
	}

	// cloneMu keeps each eager/lazy pair atomic with respect to parent
	// writes: within a pair both children must see the same parent state.
	var cloneMu sync.Mutex
	type pair struct {
		eager, lazy *mem.Space
	}
	ps := make([]pair, pairs)
	nextDom := mem.DomID(10)
	for i := range ps {
		cloneMu.Lock()
		e, _, err := parent.CloneOp(obs.Ctx(vclock.NewMeter(nil)), nextDom, true)
		if err != nil {
			cloneMu.Unlock()
			t.Fatalf("pair %d eager clone: %v", i, err)
		}
		l, st, err := parent.CloneOpMode(obs.Ctx(vclock.NewMeter(nil)), nextDom+1, true, mem.CloneLazy)
		cloneMu.Unlock()
		if err != nil {
			t.Fatalf("pair %d lazy clone: %v", i, err)
		}
		if st.Deferred == 0 {
			t.Fatalf("pair %d deferred nothing", i)
		}
		ps[i] = pair{eager: e, lazy: l}
		nextDom += 2
	}

	var wg sync.WaitGroup
	errs := make(chan error, pairs+1)

	// Parent writer: races every streamer through resolveCOW's deferred
	// conversion path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(1))
		for i := 0; i < writes; i++ {
			pfn := mem.PFN(r.Intn(pages))
			data := randBytes(r, 16)
			cloneMu.Lock()
			err := parent.Write(pfn, 64, data, vclock.NewMeter(nil))
			cloneMu.Unlock()
			if err != nil {
				errs <- fmt.Errorf("parent write %d: %w", i, err)
				return
			}
		}
	}()

	// Per-pair workers: identical demand workloads on both twins, racing
	// the lazy twin's streamer.
	for i := range ps {
		wg.Add(1)
		go func(i int, p pair) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(100 + i)))
			for n := 0; n < 300; n++ {
				pfn := mem.PFN(r.Intn(pages))
				switch r.Intn(3) {
				case 0:
					data := randBytes(r, 12)
					if err := p.eager.WriteOp(obs.Ctx(vclock.NewMeter(nil)), pfn, 128, data); err != nil {
						errs <- fmt.Errorf("pair %d eager write: %w", i, err)
						return
					}
					if err := p.lazy.WriteOp(obs.Ctx(vclock.NewMeter(nil)), pfn, 128, data); err != nil {
						errs <- fmt.Errorf("pair %d lazy write: %w", i, err)
						return
					}
				case 1:
					eb, lb := make([]byte, 16), make([]byte, 16)
					if err := p.eager.ReadOp(obs.OpCtx{}, pfn, 0, eb); err != nil {
						errs <- fmt.Errorf("pair %d eager read: %w", i, err)
						return
					}
					if err := p.lazy.ReadOp(obs.OpCtx{}, pfn, 0, lb); err != nil {
						errs <- fmt.Errorf("pair %d lazy read: %w", i, err)
						return
					}
					// Reads race the parent writer only on IDC-free
					// regular pages already privatized or family-shared
					// at identical clone time, so twins agree.
					if string(eb) != string(lb) {
						errs <- fmt.Errorf("pair %d read diverged at pfn %d", i, pfn)
						return
					}
				case 2:
					if err := p.eager.TouchCOW(pfn, vclock.NewMeter(nil)); err != nil {
						errs <- fmt.Errorf("pair %d eager touch: %w", i, err)
						return
					}
					if err := p.lazy.TouchCOW(pfn, vclock.NewMeter(nil)); err != nil {
						errs <- fmt.Errorf("pair %d lazy touch: %w", i, err)
						return
					}
				}
			}
		}(i, ps[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Drain every streamer and check pairwise equivalence.
	for i, p := range ps {
		if _, _, err := p.lazy.WaitLazy(); err != nil {
			t.Fatalf("pair %d WaitLazy: %v", i, err)
		}
		if ss := p.lazy.StreamStats(); ss.Remaining != 0 {
			t.Fatalf("pair %d: %d pages remaining", i, ss.Remaining)
		}
		if p.eager.Faults() != p.lazy.Faults() {
			t.Fatalf("pair %d COW faults: eager %d, lazy %d", i, p.eager.Faults(), p.lazy.Faults())
		}
		if err := snapshotsEqual(fmt.Sprintf("pair %d", i), p.eager, p.lazy); err != nil {
			t.Fatal(err)
		}
	}
	audit(t, m)

	// Teardown recovers the whole pool: no pledge, zombie or streamer
	// reference leaks under concurrency either.
	for _, p := range ps {
		if err := p.eager.Release(); err != nil {
			t.Fatal(err)
		}
		if err := p.lazy.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if err := parent.Release(); err != nil {
		t.Fatal(err)
	}
	if got := m.FreeFrames(); got != total {
		t.Fatalf("free frames = %d, want %d", got, total)
	}
	audit(t, m)
}

// TestLazyReleaseMidStream is the regression for the Release/streamer gap:
// releasing a lazy child whose streamer is still running must cancel and
// drain the streamer BEFORE dropping references, or the streamer adopts
// pledges on a retired table. Without the drain this test races (caught by
// -race) and leaks zombies (caught by the free-list check).
func TestLazyReleaseMidStream(t *testing.T) {
	const pages = 4096
	meta := mem.PTFrameCount(pages) + mem.P2MFrameCount(pages)
	total := pages + 2*meta + 64
	for iter := 0; iter < 8; iter++ {
		m := mem.New(uint64(total) * mem.PageSize)
		parent, err := mem.NewSpace(m, parentDom, pages, vclock.NewMeter(nil))
		if err != nil {
			t.Fatal(err)
		}
		child, st, err := parent.CloneOpMode(obs.Ctx(vclock.NewMeter(nil)), childDom, true, mem.CloneLazy)
		if err != nil {
			t.Fatal(err)
		}
		if st.Deferred != pages {
			t.Fatalf("deferred %d, want %d", st.Deferred, pages)
		}
		// Release immediately: the streamer is mid-walk with near
		// certainty at this page count.
		if err := child.Release(); err != nil {
			t.Fatalf("iter %d: child release mid-stream: %v", iter, err)
		}
		if err := parent.Release(); err != nil {
			t.Fatalf("iter %d: parent release: %v", iter, err)
		}
		if got := m.FreeFrames(); got != total {
			t.Fatalf("iter %d: free frames = %d, want %d (mid-stream release leaked)", iter, got, total)
		}
		audit(t, m)
	}
}

// TestLazyCancelStreamFreezesProgress pins CancelStream semantics: pages
// already materialized stay mapped and readable, unstreamed ones keep
// their pledges until release, and a cancelled child still tears down
// cleanly.
func TestLazyCancelStreamFreezesProgress(t *testing.T) {
	const pages = 2048
	meta := mem.PTFrameCount(pages) + mem.P2MFrameCount(pages)
	total := pages + 2*meta + 64
	m := mem.New(uint64(total) * mem.PageSize)
	parent, err := mem.NewSpace(m, parentDom, pages, vclock.NewMeter(nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(0, 0, []byte("clone-time"), nil); err != nil {
		t.Fatal(err)
	}
	child, _, err := parent.CloneOpMode(obs.Ctx(vclock.NewMeter(nil)), childDom, true, mem.CloneLazy)
	if err != nil {
		t.Fatal(err)
	}
	child.CancelStream()
	ss := child.StreamStats()
	if ss.StreamedPages+ss.DemandPages+ss.Remaining != pages {
		t.Fatalf("stats do not partition the space: %+v", ss)
	}
	// Demand faults still work after cancellation; pfn 0 may or may not
	// have been streamed already, both must read the clone-time bytes.
	buf := make([]byte, 10)
	if err := child.ReadOp(obs.Ctx(vclock.NewMeter(nil)), 0, 0, buf); err != nil {
		t.Fatalf("read after cancel: %v", err)
	}
	if string(buf) != "clone-time" {
		t.Fatalf("read %q after cancel", buf)
	}
	if err := child.Release(); err != nil {
		t.Fatal(err)
	}
	if err := parent.Release(); err != nil {
		t.Fatal(err)
	}
	if got := m.FreeFrames(); got != total {
		t.Fatalf("free frames = %d, want %d", got, total)
	}
	audit(t, m)
}
