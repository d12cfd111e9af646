package lazytest

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nephele/internal/fault"
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

// TestLazyStressConcurrent is the interleaving stress: several lazy clones
// of ONE parent, each paired with an eager twin cloned back-to-back, while
// one seeded schedule interleaves parent writes with every pair's own
// demand workload, all through the one shared pool. COW semantics make each
// pair's outcome independent of where the parent writes fall — a parent
// write after the pair's clone copies away and the family frame keeps the
// clone-time contents — so the pairwise snapshot equality holds under any
// interleaving. The orderings of accesses against the drain are covered
// exhaustively by TestLazyOrderings.
func TestLazyStressConcurrent(t *testing.T) {
	const (
		pages  = 192
		pairs  = 4
		writes = 200
	)
	meta := mem.PTFrameCount(pages) + mem.P2MFrameCount(pages)
	total := pages*(2+3*pairs) + meta*(1+2*pairs) + writes + 256
	m := mem.New(uint64(total) * mem.PageSize)
	parent, err := mem.NewSpace(obs.Ctx(vclock.NewMeter(nil)), m, parentDom, pages)
	if err != nil {
		t.Fatal(err)
	}
	seedR := rand.New(rand.NewSource(42))
	for pfn := 0; pfn < pages; pfn++ {
		if err := parent.Write(mem.PFN(pfn), 0, randBytes(seedR, 32), nil); err != nil {
			t.Fatal(err)
		}
	}

	type pair struct {
		eager, lazy *mem.Space
	}
	ps := make([]pair, pairs)
	nextDom := mem.DomID(10)
	for i := range ps {
		e, _, err := parent.CloneOp(obs.Ctx(vclock.NewMeter(nil)), nextDom, true)
		if err != nil {
			t.Fatalf("pair %d eager clone: %v", i, err)
		}
		l, st, err := parent.CloneOpMode(obs.Ctx(vclock.NewMeter(nil)), nextDom+1, true, mem.CloneLazy)
		if err != nil {
			t.Fatalf("pair %d lazy clone: %v", i, err)
		}
		if st.Deferred == 0 {
			t.Fatalf("pair %d deferred nothing", i)
		}
		ps[i] = pair{eager: e, lazy: l}
		nextDom += 2
	}

	// One schedule: each step is a parent write (through resolveCOW's
	// deferred conversion path under every pair's pledges) or the same
	// demand access on both twins of one pair.
	r := rand.New(rand.NewSource(1))
	for n, parentWrites := 0, 0; n < writes+300*pairs; n++ {
		pfn := mem.PFN(r.Intn(pages))
		if parentWrites < writes && r.Intn(1+300*pairs/writes) == 0 {
			if err := parent.Write(pfn, 64, randBytes(r, 16), vclock.NewMeter(nil)); err != nil {
				t.Fatalf("parent write %d: %v", parentWrites, err)
			}
			parentWrites++
			continue
		}
		i := r.Intn(pairs)
		p := ps[i]
		switch r.Intn(3) {
		case 0:
			data := randBytes(r, 12)
			if err := p.eager.WriteOp(obs.Ctx(vclock.NewMeter(nil)), pfn, 128, data); err != nil {
				t.Fatalf("pair %d eager write: %v", i, err)
			}
			if err := p.lazy.WriteOp(obs.Ctx(vclock.NewMeter(nil)), pfn, 128, data); err != nil {
				t.Fatalf("pair %d lazy write: %v", i, err)
			}
		case 1:
			eb, lb := make([]byte, 16), make([]byte, 16)
			if err := p.eager.ReadOp(obs.OpCtx{}, pfn, 0, eb); err != nil {
				t.Fatalf("pair %d eager read: %v", i, err)
			}
			if err := p.lazy.ReadOp(obs.OpCtx{}, pfn, 0, lb); err != nil {
				t.Fatalf("pair %d lazy read: %v", i, err)
			}
			if string(eb) != string(lb) {
				t.Fatalf("pair %d read diverged at pfn %d", i, pfn)
			}
		case 2:
			if err := p.eager.TouchCOW(obs.Ctx(vclock.NewMeter(nil)), pfn); err != nil {
				t.Fatalf("pair %d eager touch: %v", i, err)
			}
			if err := p.lazy.TouchCOW(obs.Ctx(vclock.NewMeter(nil)), pfn); err != nil {
				t.Fatalf("pair %d lazy touch: %v", i, err)
			}
		}
	}

	// Drain every lazy twin and check pairwise equivalence.
	for i, p := range ps {
		if err := p.lazy.Drain(obs.OpCtx{}); err != nil {
			t.Fatalf("pair %d Drain: %v", i, err)
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

	// Teardown recovers the whole pool: no pledge or zombie reference
	// leaks under the interleaving either.
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

// TestLazyReleaseMidStream is the regression for releasing a lazy child
// whose drain stopped part-way: the drain fails at its third chunk, so the
// child holds materialized sharer references and unmaterialized pledges
// side by side, and its release must drop the one and cancel the other or
// the parent's frames zombify (caught by the free-list check). A child
// released before any drain is the same case with nothing materialized.
// Either way a drain after the release materializes nothing.
func TestLazyReleaseMidStream(t *testing.T) {
	const pages = 4096
	meta := mem.PTFrameCount(pages) + mem.P2MFrameCount(pages)
	total := pages + 2*meta + 64
	for _, failAt := range []int{0, 3} { // 0: released undrained
		m := mem.New(uint64(total) * mem.PageSize)
		parent, err := mem.NewSpace(obs.Ctx(vclock.NewMeter(nil)), m, parentDom, pages)
		if err != nil {
			t.Fatal(err)
		}
		reg := fault.NewRegistry()
		m.SetFaults(reg)
		child, st, err := parent.CloneOpMode(obs.Ctx(vclock.NewMeter(nil)), childDom, true, mem.CloneLazy)
		if err != nil {
			t.Fatal(err)
		}
		if st.Deferred != pages {
			t.Fatalf("deferred %d, want %d", st.Deferred, pages)
		}
		want := mem.StreamStats{Remaining: pages}
		wantErr := mem.ErrStreamPending
		if failAt > 0 {
			reg.Inject(fault.PointMemStreamExtent, fault.FailNth(failAt), fault.Fatal)
			werr := child.Drain(obs.Ctx(vclock.NewMeter(nil)))
			if !fault.IsFault(werr) {
				t.Fatalf("Drain = %v, want the injected fault at chunk %d", werr, failAt)
			}
			wantErr = werr
			n := (failAt - 1) * 128
			want = mem.StreamStats{Remaining: pages - n, StreamedPages: n, StreamedExtents: failAt - 1}
		}
		if ss := child.StreamStats(); ss != want {
			t.Fatalf("fail at %d: stats %+v, want %+v", failAt, ss, want)
		}
		audit(t, m)
		if err := child.Release(); err != nil {
			t.Fatalf("fail at %d: child release mid-stream: %v", failAt, err)
		}
		if err := child.Drain(obs.Ctx(vclock.NewMeter(nil))); !errors.Is(err, wantErr) {
			t.Fatalf("fail at %d: Drain after release = %v, want %v", failAt, err, wantErr)
		}
		if err := parent.Release(); err != nil {
			t.Fatalf("fail at %d: parent release: %v", failAt, err)
		}
		if got := m.FreeFrames(); got != total {
			t.Fatalf("fail at %d: free frames = %d, want %d (mid-stream release leaked)", failAt, got, total)
		}
		audit(t, m)
	}
}

// TestLazyCancelStreamFreezesProgress pins CancelStream semantics: nothing
// is materialized but what an access demand-faults, the stream refuses to
// drain (ErrStreamPending), unstreamed pages keep their pledges until
// release, and a cancelled child still tears down cleanly.
func TestLazyCancelStreamFreezesProgress(t *testing.T) {
	const pages = 2048
	meta := mem.PTFrameCount(pages) + mem.P2MFrameCount(pages)
	total := pages + 2*meta + 64
	m := mem.New(uint64(total) * mem.PageSize)
	parent, err := mem.NewSpace(obs.Ctx(vclock.NewMeter(nil)), m, parentDom, pages)
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
	// Demand faults still work after cancellation.
	buf := make([]byte, 10)
	if err := child.ReadOp(obs.Ctx(vclock.NewMeter(nil)), 0, 0, buf); err != nil {
		t.Fatalf("read after cancel: %v", err)
	}
	if string(buf) != "clone-time" {
		t.Fatalf("read %q after cancel", buf)
	}
	want := mem.StreamStats{Remaining: pages - 1, DemandPages: 1}
	if ss := child.StreamStats(); ss != want {
		t.Fatalf("stats %+v after cancel and one read, want %+v", ss, want)
	}
	if err := child.Drain(obs.Ctx(vclock.NewMeter(nil))); !errors.Is(err, mem.ErrStreamPending) {
		t.Fatalf("Drain of a cancelled stream = %v, want ErrStreamPending", err)
	}
	if ss := child.StreamStats(); ss != want {
		t.Fatalf("stats %+v after draining a cancelled stream, want %+v", ss, want)
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
