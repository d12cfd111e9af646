package lazytest

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// runSeed runs one seed's differential check, shrinking the workload to a
// minimal failing prefix on failure so the report pinpoints the scenario.
// A second run of the same seed must charge each lazy meter exactly what
// the first did: which meter pays for a page is fixed by the input.
func runSeed(t *testing.T, seed int64) {
	t.Helper()
	sc := NewScenario(seed)
	first, err := sc.run(len(sc.ops))
	if err != nil {
		n := sc.Shrink()
		t.Fatalf("seed %d (pages=%d, ops=%d, second=%v): %v\n  minimal failing prefix: %d ops (%v)",
			seed, sc.Pages, len(sc.ops), sc.SecondClone, err, n, sc.Run(n))
	}
	again, err := sc.run(len(sc.ops))
	if err != nil {
		t.Fatalf("seed %d, second run: %v", seed, err)
	}
	if first != again {
		t.Fatalf("seed %d: lazy meters differ between runs: %+v, then %+v", seed, first, again)
	}
}

// envSeeds parses NEPHELE_LAZY_SEEDS, the pinned seed list CI replays; it
// returns nil when the variable is unset.
func envSeeds(t *testing.T) []int64 {
	t.Helper()
	env := os.Getenv("NEPHELE_LAZY_SEEDS")
	if env == "" {
		return nil
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			t.Fatalf("bad seed %q: %v", f, err)
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// TestLazyDifferential is the headline harness: many seeded randomized
// layouts and workloads, each proving eager ≡ lazy end to end.
func TestLazyDifferential(t *testing.T) {
	seeds := 120
	if testing.Short() {
		seeds = 30
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, seed)
		})
	}
}

// TestLazySeedMatrix replays an explicit seed list from the environment —
// the CI matrix entry point, and the way a failing seed from any run is
// pinned as a regression.
func TestLazySeedMatrix(t *testing.T) {
	seeds := envSeeds(t)
	if seeds == nil {
		t.Skip("NEPHELE_LAZY_SEEDS not set")
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSeed(t, seed)
		})
	}
}

// TestLazyGoldenNoWorkload pins the strongest determinism claim: with no
// workload at all the drain materializes every deferred page, so the
// stream meter is EXACTLY the eager CLONEOP minus the lazy one, seed by
// seed — the golden-series equivalence of DESIGN.md §13.
func TestLazyGoldenNoWorkload(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sc := NewScenario(seed)
		eager, err := sc.build(mem.CloneEager)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lazy, err := sc.build(mem.CloneLazy)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := lazy.drain(); err != nil {
			t.Fatalf("seed %d: Drain: %v", seed, err)
		}
		if got, want := lazy.stream.Meter().Elapsed(), eager.clone.Meter().Elapsed()-lazy.clone.Meter().Elapsed(); got != want {
			t.Fatalf("seed %d: stream %d != eager %d - lazy %d",
				seed, got, eager.clone.Meter().Elapsed(), lazy.clone.Meter().Elapsed())
		}
		if ss := lazy.child.StreamStats(); ss.StreamedPages != lazy.st.Deferred || ss.DemandPages != 0 {
			t.Fatalf("seed %d: stats %+v after a drain with no workload, deferred %d", seed, ss, lazy.st.Deferred)
		}
		if lazy.clone.Meter().Elapsed() >= eager.clone.Meter().Elapsed() && lazy.st.Deferred > 0 {
			t.Fatalf("seed %d: lazy CLONEOP (%d) not cheaper than eager (%d) with %d deferred",
				seed, lazy.clone.Meter().Elapsed(), eager.clone.Meter().Elapsed(), lazy.st.Deferred)
		}
		total := sc.frames()
		if err := lazy.release(total); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := eager.release(total); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestLazyGoldenSeriesPostStream asserts that once the drain completes a
// no-demand-fault workload produces the IDENTICAL per-op virtual-time
// series on both sides: materialization leaves no trace in later costs.
func TestLazyGoldenSeriesPostStream(t *testing.T) {
	sc := NewScenario(7)
	eager, err := sc.build(mem.CloneEager)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := sc.build(mem.CloneLazy)
	if err != nil {
		t.Fatal(err)
	}
	if err := lazy.drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	series := func(s *side) []vclock.Duration {
		out := make([]vclock.Duration, 0, sc.Pages)
		for pfn := 0; pfn < sc.Pages; pfn++ {
			m := vclock.NewMeter(nil)
			if err := s.child.TouchCOW(obs.Ctx(m), mem.PFN(pfn)); err != nil {
				t.Fatalf("%v touch pfn %d: %v", s.mode, pfn, err)
			}
			out = append(out, m.Elapsed())
		}
		return out
	}
	es, ls := series(eager), series(lazy)
	for i := range es {
		if es[i] != ls[i] {
			t.Fatalf("series diverges at pfn %d: eager %d, lazy %d", i, es[i], ls[i])
		}
	}
}

// TestLazyLostExtentFails documents the lost-extent bug class: a drain
// that dies mid-walk (injected here) must surface its error, leave
// Remaining non-zero, and block further cloning of the child with
// ErrStreamPending — the failure the differential harness would report as
// a snapshot hole.
func TestLazyLostExtentFails(t *testing.T) {
	sc := NewScenario(3)
	s, err := sc.build(mem.CloneLazy)
	if err != nil {
		t.Fatal(err)
	}
	if s.st.Deferred == 0 {
		t.Fatal("nothing deferred")
	}
	if _, _, cerr := s.child.CloneOp(obs.Ctx(vclock.NewMeter(nil)), secondDom, true); !errors.Is(cerr, mem.ErrStreamPending) {
		t.Fatalf("clone of an undrained child = %v, want ErrStreamPending", cerr)
	}
	s.faults.Inject(fault.PointMemStreamExtent, fault.FailOnce(), fault.Fatal)
	if werr := s.drain(); !fault.IsFault(werr) {
		t.Fatalf("Drain = %v, want injected fault", werr)
	}
	// The failure is terminal: disarmed, a second drain re-reports it.
	s.faults.Clear(fault.PointMemStreamExtent)
	if werr := s.drain(); !fault.IsFault(werr) {
		t.Fatalf("second Drain = %v, want the recorded fault", werr)
	}
	if ss := s.child.StreamStats(); ss.Remaining != s.st.Deferred {
		t.Fatalf("stats %+v after a first-chunk failure, want all %d pages remaining", ss, s.st.Deferred)
	}
	if _, _, cerr := s.child.CloneOp(obs.Ctx(vclock.NewMeter(nil)), secondDom, true); !errors.Is(cerr, mem.ErrStreamPending) {
		t.Fatalf("clone of half-streamed child = %v, want ErrStreamPending", cerr)
	}
	// Teardown still recovers every frame: the unstreamed pledges are
	// cancelled by the child's release.
	if err := s.release(sc.frames()); err != nil {
		t.Fatal(err)
	}
}

// TestLazyDemandFaultInjection exercises the unmapped-fault point: an
// injected failure surfaces on the faulting access, a retry after
// disarming succeeds, and the scenario still converges to eager-equal
// state.
func TestLazyDemandFaultInjection(t *testing.T) {
	sc := NewScenario(5)
	eager, err := sc.build(mem.CloneEager)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := sc.build(mem.CloneLazy)
	if err != nil {
		t.Fatal(err)
	}

	// Find a deferred page and fault on it with the point armed.
	target := -1
	for i, ps := range sc.specs {
		if ps.kind == mem.KindRegular && !ps.readOnly {
			target = i
			break
		}
	}
	if target < 0 {
		t.Skip("scenario has no writable regular page")
	}
	lazy.faults.Inject(fault.PointMemUnmappedFault, fault.FailAlways(), fault.Transient)
	buf := make([]byte, 8)
	if rerr := lazy.child.ReadOp(lazy.work, mem.PFN(target), 0, buf); !fault.IsFault(rerr) {
		t.Fatalf("read = %v, want injected fault", rerr)
	}
	lazy.faults.Clear(fault.PointMemUnmappedFault)
	if err := lazy.child.ReadOp(lazy.work, mem.PFN(target), 0, buf); err != nil {
		t.Fatalf("read after disarm: %v", err)
	}
	if ss := lazy.child.StreamStats(); ss.DemandPages != 1 {
		t.Fatalf("stats %+v, want the retried read's one demand page", ss)
	}

	if err := lazy.drain(); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if err := snapshotsEqual("child", eager.child, lazy.child); err != nil {
		t.Fatal(err)
	}
	total := sc.frames()
	if err := lazy.release(total); err != nil {
		t.Fatal(err)
	}
	if err := eager.release(total); err != nil {
		t.Fatal(err)
	}
}

// TestLazyCloneRollbackCancelsPledges pins the rollback bug class: a lazy
// clone that fails AFTER pledging (here: the pool runs out during the
// child's metadata allocation) must cancel every pledge, or the parent's
// frames zombify at release and the free list never recovers.
func TestLazyCloneRollbackCancelsPledges(t *testing.T) {
	const pages = 512
	// Exactly enough for the parent, plus a sliver that cannot cover the
	// child's metadata frames.
	meta := mem.PTFrameCount(pages) + mem.P2MFrameCount(pages)
	total := pages + meta + 1
	m := mem.New(uint64(total) * mem.PageSize)
	parent, err := mem.NewSpace(obs.Ctx(vclock.NewMeter(nil)), m, parentDom, pages)
	if err != nil {
		t.Fatal(err)
	}
	_, _, cerr := parent.CloneOpMode(obs.Ctx(vclock.NewMeter(nil)), childDom, true, mem.CloneLazy)
	if cerr == nil {
		t.Fatal("clone unexpectedly succeeded in an exhausted pool")
	}
	if err := parent.Release(); err != nil {
		t.Fatalf("parent release after failed clone: %v", err)
	}
	if got := m.FreeFrames(); got != total {
		t.Fatalf("free frames = %d, want %d: failed lazy clone leaked pledges", got, total)
	}
	audit(t, m)
}
