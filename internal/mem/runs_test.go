package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// ptesOf wraps MFNs in present, writable regular page-table entries.
func ptesOf(mfns []MFN) []pte {
	ptes := make([]pte, len(mfns))
	for i, mfn := range mfns {
		ptes[i] = makePTE(mfn, ptePresent|pteWritable, KindRegular)
	}
	return ptes
}

// fragmentSpace COW-faults every other page of parent against a throwaway
// clone, leaving its table as scattered as a table gets:
// alternate entries moved to fresh frames, so no two neighbouring entries
// are MFN-contiguous and every run is one page long.
func fragmentSpace(tb testing.TB, parent *Space, scratchDom DomID) {
	tb.Helper()
	warm, _, err := parent.CloneOp(obs.OpCtx{}, scratchDom, false)
	if err != nil {
		tb.Fatal(err)
	}
	for pfn := 0; pfn < parent.Pages(); pfn += 2 {
		if err := parent.TouchCOW(obs.OpCtx{}, PFN(pfn)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := warm.Release(); err != nil {
		tb.Fatal(err)
	}
}

// interleave reorders a frame list evens first, odds second: the same set
// of frames, but neighbouring entries are never MFN-contiguous — a list of
// one-page runs.
func interleave(mfns []MFN) []MFN {
	out := make([]MFN, 0, len(mfns))
	for i := 0; i < len(mfns); i += 2 {
		out = append(out, mfns[i])
	}
	for i := 1; i < len(mfns); i += 2 {
		out = append(out, mfns[i])
	}
	return out
}

// frameImage is a frame's metadata without its contents.
type frameImage struct {
	Owner    DomID
	Refcount int32
	Pledges  int32
	InUse    bool
}

// poolImage is what the batched operations can change: every materialized
// frame's metadata, the aggregate counters and the per-domain usage.
type poolImage struct {
	Frames       map[MFN]frameImage
	Free, Shared int
	Used         map[DomID]int
}

func imageOf(m *Memory, doms ...DomID) poolImage {
	img := poolImage{Frames: map[MFN]frameImage{}, Free: m.FreeFrames(), Shared: m.SharedFrames(), Used: map[DomID]int{}}
	for ci, ch := range m.chunks {
		for j, f := range ch {
			img.Frames[MFN(ci)<<frameChunkShift+MFN(j)] = frameImage{f.owner, f.refcount, f.pledges, f.inUse()}
		}
	}
	for _, d := range append(doms, DomIDCOW) {
		img.Used[d] = m.usedByDom[d]
	}
	return img
}

// TestRunCursorSplits walks the inputs at which a run of consecutive frames
// breaks — MFN gaps, descending order, the frame table's chunk edges, the
// short tail chunk, the pool's end, the watermark, an entry that is not
// present — through every batched operation in turn, and requires each step
// to match the per-frame reference: the walks take one entry at a time, so
// where a run would have split must not show.
func TestRunCursorSplits(t *testing.T) {
	// Four whole chunks, then a tail chunk [16384,16484) of 100 frames.
	const chunked = 4*frameChunk + 100
	steps := []struct {
		op   string
		dom  DomID
		refs int
	}{
		{"sharePTEs", 1, 2}, {"ShareN", 1, 3}, {"pledgePTEs", 0, 0}, {"adoptPledged", 2, 0},
		{"cancelPledged", 0, 0}, {"pledgePTEs", 0, 0}, {"releasePTEs", 2, 0}, {"ReleaseN", 1, 0},
		{"cancelPledged", 0, 0}, {"ReleaseN", 2, 0},
	}
	for _, tc := range []struct {
		name         string
		total, owned int // pool size; dom 1 owns [0, owned), the rest was never handed out
		in           []MFN
		absent       int // index of an entry that is not present, -1 for none
	}{
		{"empty", 20, 20, nil, -1},
		{"one run", 20, 20, run(1, 6), -1},
		{"shard edges", chunked, chunked, run(frameChunk-3, frameChunk+6), -1},
		{"tail shard", 20, 20, run(14, 6), -1},
		{"every other", 20, 20, []MFN{2, 4, 6, 8, 10}, -1},
		{"long run between gaps", 20, 20, []MFN{0, 2, 3, 4, 5, 6, 7, 8, 9, 11}, -1},
		{"descending", 20, 20, []MFN{3, 2, 1}, -1},
		{"strict stops at a bad frame", 20, 20, []MFN{1, 2, 20, 3}, -1},
		{"skip-bad walks on", 20, 20, []MFN{1, 2, 20, 3, 99}, -1},
		{"chunk edge", chunked, chunked, run(4090, 12), -1},
		{"last frame of a chunk", chunked, chunked, []MFN{4095, 4096}, -1},
		{"whole chunks", chunked, chunked, run(4000, 2*frameChunk), -1},
		{"chunk edge is the shard edge", chunked, chunked, run(4*frameChunk-3, 6), -1},
		{"tail shard shorter than a chunk", chunked, chunked, run(4*frameChunk+90, 10), -1},
		{"past the tail shard", chunked, chunked, run(4*frameChunk+98, 3), -1},
		{"absent entry", 20, 20, run(0, 7), 3},
		{"past the watermark", chunked, 100, run(90, 20), -1},
		{"chunk the table never reached", chunked, 100, append(run(95, 5), run(frameChunk, 5)...), -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, r := New(uint64(tc.total)*PageSize), newRefPool(tc.total)
			mfns, err := m.AllocN(obs.OpCtx{}, 1, tc.owned)
			if err != nil {
				t.Fatal(err)
			}
			r.alloc(1, mfns)
			absent := make([]bool, len(tc.in))
			if tc.absent >= 0 {
				absent[tc.absent] = true
			}
			for i, st := range steps {
				if err := runBatchOp(m, r, batchOpNamed(st.op), st.dom, tc.in, absent, st.refs); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if err := r.check(m, 1, 2); err != nil {
					t.Fatalf("step %d (%s): %v", i, st.op, err)
				}
			}
		})
	}
}

// TestBatchedOpsAllocFree pins that the walks build nothing: over a
// scattered input — every other MFN, across a chunk edge — no batched
// operation allocates. Each closure leaves the
// frames shared with at least one reference, so it can run any number of
// times.
func TestBatchedOpsAllocFree(t *testing.T) {
	m := New(65536 * PageSize)
	if _, err := m.AllocN(obs.OpCtx{}, 1, m.TotalFrames()); err != nil {
		t.Fatal(err)
	}
	var mfns []MFN
	for f := frameChunk - 200; f < frameChunk+200; f += 2 {
		mfns = append(mfns, MFN(f))
	}
	ptes := ptesOf(mfns)
	meter := vclock.NewMeter(nil)
	if _, err := m.sharePTEs(obs.Ctx(meter), 1, ptes, 1); err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"sharePTEs", func() {
			_, err := m.sharePTEs(obs.Ctx(meter), 1, ptes, 2)
			must(err)
		}},
		{"sharePTEs+releasePTEs", func() {
			_, err := m.sharePTEs(obs.Ctx(meter), 2, ptes, 2)
			must(err)
			must(m.releasePTEs(2, ptes))
		}},
		{"pledgePTEs+cancelPledged", func() {
			must(m.pledgePTEs(ptes))
			must(m.cancelPledged(ptes))
		}},
		{"pledgePTEs+adoptPledged", func() {
			must(m.pledgePTEs(ptes))
			must(m.adoptPledged(obs.Ctx(meter), 2, ptes))
		}},
		{"ShareN", func() { must(m.ShareN(obs.Ctx(meter), 1, mfns, 2)) }},
		{"ShareN+ReleaseN", func() {
			must(m.ShareN(obs.Ctx(meter), 2, mfns, 2))
			must(m.ReleaseN(2, mfns))
		}},
		// A one-frame list is built on the caller's stack; the walks must
		// not make it escape.
		{"ShareN+ReleaseN/one", func() {
			must(m.ShareN(obs.Ctx(meter), 2, []MFN{mfns[0]}, 2))
			must(m.ReleaseN(2, []MFN{mfns[0]}))
		}},
		{"CopyFrameN/one", func() { must(m.CopyFrameN(obs.Ctx(meter), []MFN{10}, []MFN{11})) }},
	} {
		if got := testing.AllocsPerRun(50, tc.op); got != 0 {
			t.Errorf("%s allocates %.0f times per call over %d scattered frames, want 0", tc.name, got, len(mfns))
		}
	}
}

// TestFragmentedLayoutEquivalence drives one operation sequence over the
// same frames three times — listed in ascending order on one pool,
// interleaved into one-page runs on a twin, in a seeded random order on a
// third — and requires identical frame metadata, counters, usage and
// virtual time after every step: the order the input lists its frames in
// must not show in any result. The contiguous lists cross the frame
// table's chunk edges.
func TestFragmentedLayoutEquivalence(t *testing.T) {
	const stride = 4 * frameChunk
	type twin struct {
		m     *Memory
		meter *vclock.Meter
		mfns  []MFN // the family's shared frames, over a chunk edge
		kept  []MFN // frames dom 1 keeps owning until a lazy child adopts them, over a chunk edge
		left  []MFN // frames dom 1 keeps owning until they are zombies, over a chunk edge
	}
	build := func(order func([]MFN) []MFN) twin {
		m := New(2 * stride * PageSize)
		if _, err := m.AllocN(obs.OpCtx{}, 1, m.TotalFrames()); err != nil {
			t.Fatal(err)
		}
		return twin{m, vclock.NewMeter(nil),
			order(run(stride-300, 600)), order(run(frameChunk-40, 80)), order(run(stride+3*frameChunk-40, 80))}
	}
	a := build(func(f []MFN) []MFN { return f })
	b := build(interleave)
	rng := rand.New(rand.NewSource(7))
	c := build(func(f []MFN) []MFN {
		out := append([]MFN(nil), f...)
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
		return out
	})

	release := func(tw twin) error { return tw.m.ReleaseN(2, tw.mfns) }
	errOf := func(_ int, err error) error { return err }
	steps := []struct {
		name string
		op   func(tw twin) error
	}{
		{"share", func(tw twin) error { return errOf(tw.m.sharePTEs(obs.Ctx(tw.meter), 1, ptesOf(tw.mfns), 2)) }},
		{"share by a sharer", func(tw twin) error { return errOf(tw.m.sharePTEs(obs.Ctx(tw.meter), 2, ptesOf(tw.mfns), 2)) }},
		{"ShareN again", func(tw twin) error { return tw.m.ShareN(obs.Ctx(tw.meter), 1, tw.mfns, 3) }},
		{"pledge", func(tw twin) error { return tw.m.pledgePTEs(ptesOf(tw.mfns)) }},
		{"pledge twice", func(tw twin) error { return tw.m.pledgePTEs(ptesOf(tw.mfns)) }},
		{"adopt", func(tw twin) error { return tw.m.adoptPledged(obs.Ctx(tw.meter), 2, ptesOf(tw.mfns)) }},
		{"cancel", func(tw twin) error { return tw.m.cancelPledged(ptesOf(tw.mfns)) }},
		{"pledge owned", func(tw twin) error {
			if err := tw.m.pledgePTEs(ptesOf(tw.kept)); err != nil {
				return err
			}
			return tw.m.pledgePTEs(ptesOf(tw.left))
		}},
		{"adopt owned", func(tw twin) error { return tw.m.adoptPledged(obs.Ctx(tw.meter), 2, ptesOf(tw.kept)) }},
		{"owner releases, leaving zombies", func(tw twin) error {
			if err := tw.m.releasePTEs(1, ptesOf(tw.kept)); err != nil {
				return err
			}
			return tw.m.releasePTEs(1, ptesOf(tw.left))
		}},
		{"cancel the zombies", func(tw twin) error { return tw.m.cancelPledged(ptesOf(tw.left)) }},
		{"adopter releases", func(tw twin) error { return tw.m.ReleaseN(2, tw.kept) }},
		{"releasePTEs", func(tw twin) error { return tw.m.releasePTEs(2, ptesOf(tw.mfns)) }},
		{"ShareN by a sharer", func(tw twin) error { return tw.m.ShareN(obs.Ctx(tw.meter), 2, tw.mfns, 3) }},
	}
	// share 2, share by a sharer +1, ShareN +2, adopt +1, releasePTEs -1,
	// ShareN by a sharer +2: seven sharers are left to drop.
	for i := 1; i <= 7; i++ {
		steps = append(steps, struct {
			name string
			op   func(tw twin) error
		}{"ReleaseN", release})
	}
	for _, st := range steps {
		if err := st.op(a); err != nil {
			t.Fatalf("%s (contiguous): %v", st.name, err)
		}
		ia := imageOf(a.m, 1, 2)
		for _, other := range []struct {
			name string
			tw   twin
		}{{"interleaved", b}, {"shuffled", c}} {
			if err := st.op(other.tw); err != nil {
				t.Fatalf("%s (%s): %v", st.name, other.name, err)
			}
			if ib := imageOf(other.tw.m, 1, 2); !reflect.DeepEqual(ia, ib) {
				t.Fatalf("after %s the %s pool differs: free %d/%d shared %d/%d used %v/%v",
					st.name, other.name, ia.Free, ib.Free, ia.Shared, ib.Shared, ia.Used, ib.Used)
			}
			if a.meter.Elapsed() != other.tw.meter.Elapsed() {
				t.Fatalf("after %s virtual time differs: %v vs %v (%s)", st.name, a.meter.Elapsed(), other.tw.meter.Elapsed(), other.name)
			}
		}
	}
	if shared, free := a.m.SharedFrames(), a.m.FreeFrames(); shared != 0 || free != 600+80+80 {
		t.Fatalf("sequence left %d shared and %d free frames, want every frame it touched freed", shared, free)
	}
	if a.meter.Elapsed() == 0 {
		t.Fatal("sequence charged no virtual time")
	}
}

// TestFragmentedErrorPaths replays the batched operations' failure
// contracts on one-page-run input: strict operations reject the whole call
// and leave the pool untouched (and clean under Audit) wherever in the
// input the bad frame sits — a share undoes every bump its walk made,
// whether the frame was dom_cow's, a zombie's or the sharer's own — and the
// releasing operations skip the bad frame, process the rest and report the
// first error.
func TestFragmentedErrorPaths(t *testing.T) {
	const stride = frameChunk
	m := New(65536 * PageSize)
	// Dom 1 fills the first chunk and takes 100 frames of the next one, whose
	// remaining frames stay above the watermark: never allocated.
	owned, err := m.AllocN(obs.OpCtx{}, 1, stride+100)
	if err != nil {
		t.Fatal(err)
	}
	full, partial := owned[:stride], owned[stride:]
	var good []MFN // 100 one-page runs, half in each of the two chunks
	for i := 0; i < 100; i += 2 {
		good = append(good, full[stride-100+i])
	}
	for i := 0; i < 100; i += 2 {
		good = append(good, partial[i])
	}
	spare := full[stride-99] // dom 1's, between two good frames, never shared or pledged
	outOfRange := MFN(m.TotalFrames() + 7)
	pastWatermark := partial[0] + 500
	foreigns, err := m.AllocN(obs.OpCtx{}, 9, 1)
	if err != nil {
		t.Fatal(err)
	}
	foreign := foreigns[0]
	// with returns mfns with extra inserted before index at.
	with := func(mfns []MFN, at int, extra MFN) []MFN {
		out := append([]MFN(nil), mfns[:at]...)
		return append(append(out, extra), mfns[at:]...)
	}
	// untouched requires op to fail with want and to leave the pool as it was.
	untouched := func(name string, want error, op func() error) {
		t.Helper()
		before := imageOf(m, 1, 9)
		if err := op(); !errors.Is(err, want) {
			t.Errorf("%s: err = %v, want %v", name, err, want)
		}
		if after := imageOf(m, 1, 9); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: failed call changed the pool", name)
		}
		if err := m.Audit(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}

	// The bad entry sits late in the list, past the chunk edge, so the
	// frames before it have been walked (and, for a share, bumped) when it
	// is met.
	for _, tc := range []struct {
		name  string
		extra MFN
		want  error
	}{
		{"out of range", outOfRange, ErrBadFrame},
		{"past watermark", pastWatermark, ErrDoubleFree},
		{"foreign owner", foreign, ErrNotOwner},
	} {
		in := with(good, 90, tc.extra)
		untouched("ShareN/"+tc.name, tc.want, func() error { return m.ShareN(obs.OpCtx{}, 1, in, 2) })
		untouched("sharePTEs/"+tc.name, tc.want, func() error {
			_, err := m.sharePTEs(obs.OpCtx{}, 1, ptesOf(in), 2)
			return err
		})
	}
	in := with(good, 90, outOfRange)
	untouched("pledgePTEs/out of range", ErrBadFrame, func() error { return m.pledgePTEs(ptesOf(in)) })
	untouched("adoptPledged/out of range", ErrBadFrame, func() error { return m.adoptPledged(obs.OpCtx{}, 2, ptesOf(in)) })
	in = with(good, 90, pastWatermark)
	untouched("pledgePTEs/past watermark", ErrDoubleFree, func() error { return m.pledgePTEs(ptesOf(in)) })

	// Once the good frames are dom_cow's with one sharer each, a failed
	// share has bumped them in two chunks when it meets the bad entry, and
	// must take each bump back; a frame dom 1 still owns among them must
	// stay its own. A dom_cow frame with one sharer and an owned frame
	// look alike once both are bumped, which is why the walk moves no
	// owner until every entry has passed.
	if err := m.ShareN(obs.OpCtx{}, 1, good, 1); err != nil {
		t.Fatal(err)
	}
	// zombie is a dom_cow frame only a pledge keeps: no sharer at all.
	zombie := full[stride-97]
	if err := m.pledgePTEs(ptesOf([]MFN{zombie})); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseN(1, []MFN{zombie}); err != nil {
		t.Fatal(err)
	}
	mixed := with(with(good, 30, spare), 60, zombie) // a transfer, bumps and a zombie
	for _, tc := range []struct {
		name string
		in   []MFN
		want error
	}{
		{"transfer, bump and zombie, then past watermark", with(mixed, 99, pastWatermark), ErrDoubleFree},
		{"transfer, bump and zombie, then out of range", append(mixed, outOfRange), ErrBadFrame},
		{"transfer, bump and zombie, then foreign", with(mixed, 80, foreign), ErrNotOwner},
		{"each twice, then foreign", []MFN{spare, good[0], zombie, spare, good[0], zombie, foreign}, ErrNotOwner},
		{"foreign outranked by a later out-of-range", []MFN{spare, zombie, foreign, good[1], outOfRange}, ErrBadFrame},
	} {
		for _, refs := range []int{1, 2, 3} {
			untouched(fmt.Sprintf("ShareN/%s/refs=%d", tc.name, refs), tc.want, func() error { return m.ShareN(obs.OpCtx{}, 1, tc.in, refs) })
			untouched(fmt.Sprintf("sharePTEs/%s/refs=%d", tc.name, refs), tc.want, func() error {
				_, err := m.sharePTEs(obs.OpCtx{}, 1, ptesOf(tc.in), refs)
				return err
			})
		}
	}
	if err := m.cancelPledged(ptesOf([]MFN{zombie})); err != nil {
		t.Fatal(err)
	}

	// Once they are pledged, adopting a list with one unpledged frame fails
	// whole.
	if err := m.pledgePTEs(ptesOf(good)); err != nil {
		t.Fatal(err)
	}
	in = with(good, 70, spare)
	untouched("adoptPledged/not pledged", ErrNotPledged, func() error { return m.adoptPledged(obs.OpCtx{}, 2, ptesOf(in)) })

	// cancelPledged skips and records: the out-of-range entry outranks the
	// unpledged frame, and every good frame still loses its pledge.
	in = with(with(good, 10, spare), 60, outOfRange)
	if err := m.cancelPledged(ptesOf(in)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("cancelPledged: err = %v, want the out-of-range frame reported first", err)
	}
	if err := m.cancelPledged(ptesOf(good[:5])); !errors.Is(err, ErrNotPledged) {
		t.Errorf("second cancelPledged: err = %v, want ErrNotPledged", err)
	}
	img := imageOf(m)
	for _, f := range good {
		if got := img.Frames[f]; got.Pledges != 0 || got.Refcount != 1 || got.Owner != DomIDCOW {
			t.Fatalf("frame %d after cancelPledged: %+v", f, got)
		}
	}

	// ReleaseN skips and records the same way, for both kinds of bad frame.
	freeBefore := m.FreeFrames()
	half := len(good) / 2
	if err := m.ReleaseN(2, with(good[:half], 20, pastWatermark)); !errors.Is(err, ErrDoubleFree) {
		t.Errorf("ReleaseN over a never-allocated frame: err = %v", err)
	}
	in = with(with(good[half:], 5, pastWatermark), 30, outOfRange)
	if err := m.releasePTEs(2, ptesOf(in)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("releasePTEs: err = %v, want the out-of-range frame reported first", err)
	}
	if got := m.FreeFrames() - freeBefore; got != len(good) {
		t.Errorf("skip-and-record releases freed %d frames, want all %d good ones", got, len(good))
	}
	if got := m.SharedFrames(); got != 0 {
		t.Errorf("%d frames still shared", got)
	}
}

// TestFragmentedCloneReleaseStress is the stress for the batched walks:
// children of two parents whose tables are all one-page runs are cloned and
// released in a seeded interleaving, up to five live per family —
// thousands of scattered frames per walk, over chunks both families share.
// A walk that lost or doubled a frame shows in the audit and the final
// accounting.
func TestFragmentedCloneReleaseStress(t *testing.T) {
	m := New(1 << 30)
	pages := 8 << 20 / PageSize
	iters := 40
	if testing.Short() {
		iters = 8
	}
	parents := make([]*Space, 2)
	for i := range parents {
		p, err := NewSpace(obs.OpCtx{}, m, DomID(1+i), pages)
		if err != nil {
			t.Fatal(err)
		}
		fragmentSpace(t, p, DomID(50+i))
		parents[i] = p
	}

	rng := rand.New(rand.NewSource(3))
	live := make([][]*Space, len(parents))
	for i, next := 0, DomID(100); i < 2*iters; i++ {
		p := rng.Intn(len(parents))
		if k := len(live[p]); k == 5 || (k > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(k)
			if err := live[p][j].Release(); err != nil {
				t.Fatal(err)
			}
			live[p] = append(live[p][:j], live[p][j+1:]...)
			continue
		}
		child, _, err := parents[p].CloneOp(obs.OpCtx{}, next, false)
		if err != nil {
			t.Fatal(err)
		}
		live[p] = append(live[p], child)
		next++
	}
	audit(t, m)
	for _, kids := range live {
		for _, c := range kids {
			if err := c.Release(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, p := range parents {
		if err := p.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.FreeFrames(); got != m.TotalFrames() {
		t.Fatalf("stress leaked %d frames", m.TotalFrames()-got)
	}
	if got := m.SharedFrames(); got != 0 {
		t.Fatalf("stress left %d shared frames", got)
	}
}
