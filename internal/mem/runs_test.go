package mem

import (
	"errors"
	"reflect"
	"sync"
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

// interleave reorders a frame list evens first, odds second: the same set
// of frames, but neighbouring entries are never MFN-contiguous, so the
// batched operations see one-page runs throughout.
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
	lay := m.lay
	for ci, ch := range lay.chunks {
		for j, f := range ch {
			img.Frames[MFN(ci)<<lay.cshift+MFN(j)] = frameImage{f.owner, f.refcount, f.pledges, f.inUse}
		}
	}
	for _, d := range append(doms, DomIDCOW) {
		img.Used[d] = m.UsedBy(d)
	}
	return img
}

// TestRunCursorSplits pins the one splitter every batched operation walks
// its input with: runs break at MFN discontinuities, at shard edges (a
// short tail shard included) and at the edges of the frame table's chunks,
// and the three modes differ only in what they do with entries that name no
// frame.
func TestRunCursorSplits(t *testing.T) {
	small := newLayout(20, 4) // stride 8: shards [0,8) [8,16) [16,20) and an empty one
	// Stride 16384: a shard of four chunks, then a tail shard [16384,16484)
	// shorter than one chunk.
	chunked := newLayout(4*frameChunk+100, 2)
	type span struct{ lo, hi MFN }
	walk := func(lay *layout, c runCursor) ([]span, error) {
		c.lay = lay
		var got, again []span
		for c.next() {
			if want := lay.shardIdx(c.mfn(0)); c.si != want {
				t.Fatalf("run at %d reported shard %d", c.mfn(0), c.si)
			}
			got = append(got, span{c.mfn(0), c.mfn(c.b - c.a)})
		}
		// A rewound cursor repeats the walk.
		err := c.badFrame()
		for c.rewind(); c.next(); {
			again = append(again, span{c.mfn(0), c.mfn(c.b - c.a)})
		}
		if !reflect.DeepEqual(got, again) || (err == nil) != (c.badFrame() == nil) {
			t.Errorf("second walk %v (%v), first %v (%v)", again, c.badFrame(), got, err)
		}
		return got, err
	}
	for _, tc := range []struct {
		name string
		lay  *layout
		in   []MFN
		mode runMode
		want []span
		bad  bool
	}{
		{"empty", small, nil, runStrict, nil, false},
		{"one run", small, run(1, 6), runStrict, []span{{1, 7}}, false},
		{"shard edges", small, run(5, 14), runStrict, []span{{5, 8}, {8, 16}, {16, 19}}, false},
		{"tail shard", small, run(14, 6), runStrict, []span{{14, 16}, {16, 20}}, false},
		{"every other", small, []MFN{2, 4, 6, 8, 10}, runStrict, []span{{2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}}, false},
		{"long run between gaps", small, []MFN{0, 2, 3, 4, 5, 6, 7, 8, 9, 11}, runStrict, []span{{0, 1}, {2, 8}, {8, 10}, {11, 12}}, false},
		{"descending", small, []MFN{3, 2, 1}, runStrict, []span{{3, 4}, {2, 3}, {1, 2}}, false},
		{"strict stops at a bad frame", small, []MFN{1, 2, 20, 3}, runStrict, []span{{1, 3}}, true},
		{"skip-bad walks on", small, []MFN{1, 2, 20, 3, 99}, runSkipBad, []span{{1, 3}, {3, 4}}, true},
		{"chunk edge", chunked, run(4090, 12), runStrict, []span{{4090, 4096}, {4096, 4102}}, false},
		{"last frame of a chunk", chunked, []MFN{4095, 4096}, runStrict, []span{{4095, 4096}, {4096, 4097}}, false},
		{"whole chunks", chunked, run(4000, 2*frameChunk), runStrict, []span{{4000, 4096}, {4096, 8192}, {8192, 12192}}, false},
		{"chunk edge is the shard edge", chunked, run(4*frameChunk-3, 6), runStrict, []span{{16381, 16384}, {16384, 16387}}, false},
		{"tail shard shorter than a chunk", chunked, run(4*frameChunk+90, 10), runStrict, []span{{16474, 16484}}, false},
		{"past the tail shard", chunked, run(4*frameChunk+98, 3), runSkipBad, []span{{16482, 16484}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, form := range []runCursor{{mfns: tc.in, mode: tc.mode}, {ptes: ptesOf(tc.in), mode: tc.mode}} {
				got, err := walk(tc.lay, form)
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("runs %v, want %v", got, tc.want)
				}
				if (err != nil) != tc.bad || (err != nil && !errors.Is(err, ErrBadFrame)) {
					t.Errorf("err = %v, want bad frame: %v", err, tc.bad)
				}
			}
		})
	}

	// Entries that are not present break a run in skip-absent mode only.
	ptes := ptesOf(run(0, 7))
	ptes[3] &^= ptePresent
	if got, _ := walk(small, runCursor{ptes: ptes, mode: runSkipAbsent}); !reflect.DeepEqual(got, []span{{0, 3}, {4, 7}}) {
		t.Errorf("skip-absent runs %v", got)
	}
	if got, _ := walk(small, runCursor{ptes: ptes, mode: runSkipBad}); !reflect.DeepEqual(got, []span{{0, 7}}) {
		t.Errorf("skip-bad runs over an absent entry %v", got)
	}

	// frames() against a table that covers the first chunk partly, the
	// second not at all: a run inside the grown part is whole, one that
	// leaves it comes back short, one beyond it empty and short.
	sh := &chunked.shards[0]
	chunked.growLocked(sh, 100)
	for _, tc := range []struct {
		in    []MFN
		n     int
		short bool
	}{
		{run(10, 90), 90, false},
		{run(90, 20), 10, true},
		{run(100, 5), 0, true},
		{run(frameChunk, 5), 0, true},
	} {
		c := runCursor{lay: chunked, mfns: tc.in}
		if !c.next() {
			t.Fatalf("no run over %d..", tc.in[0])
		}
		if fr, short := c.frames(); len(fr) != tc.n || short != tc.short {
			t.Errorf("frames of [%d,%d) over a 100-frame table: %d frames, short %v; want %d, %v",
				tc.in[0], int(tc.in[0])+len(tc.in), len(fr), short, tc.n, tc.short)
		}
	}
	// Growing past the first chunk makes it whole before the second exists.
	chunked.growLocked(sh, frameChunk+1)
	if ch := chunked.chunks; len(ch[0]) != frameChunk || len(ch[1]) != frameChunk || ch[2] != nil {
		t.Fatalf("table grown to %d frames has chunks of %d, %d and %d", frameChunk+1, len(ch[0]), len(ch[1]), len(ch[2]))
	}
	c := runCursor{lay: chunked, mfns: run(frameChunk-2, 4)}
	for want := 2; c.next(); want = 2 {
		if fr, short := c.frames(); len(fr) != want || short {
			t.Errorf("run [%d,%d): %d frames, short %v", c.a, c.b, len(fr), short)
		}
	}
}

// TestBatchedOpsAllocFree pins the point of streaming the runs: over the
// worst-case input — every other MFN, so every run is one page, across a
// shard edge — no batched operation allocates. Each closure leaves the
// frames shared with at least one reference, so it can run any number of
// times.
func TestBatchedOpsAllocFree(t *testing.T) {
	const stride = 4096
	m := shardedPool(t)
	if _, err := m.AllocN(1, m.TotalFrames(), nil); err != nil {
		t.Fatal(err)
	}
	var mfns []MFN
	for f := stride - 200; f < stride+200; f += 2 {
		mfns = append(mfns, MFN(f))
	}
	ptes := ptesOf(mfns)
	meter := vclock.NewMeter(nil)
	if _, err := m.sharePTEs(1, ptes, 1, meter); err != nil {
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
			_, err := m.sharePTEs(1, ptes, 2, meter)
			must(err)
		}},
		{"addSharerPTEs+releasePTEs", func() {
			must(m.addSharerPTEs(ptes, 1))
			must(m.releasePTEs(2, ptes))
		}},
		{"pledgePTEs+cancelPledged", func() {
			must(m.pledgePTEs(ptes))
			must(m.cancelPledged(ptes))
		}},
		{"pledgePTEs+adoptPledged", func() {
			must(m.pledgePTEs(ptes))
			must(m.adoptPledged(2, ptes, meter))
		}},
		{"ShareN", func() { must(m.ShareN(1, mfns, 2, meter)) }},
		{"AddSharerN+ReleaseN", func() {
			must(m.AddSharerN(mfns, 1))
			must(m.ReleaseN(2, mfns))
		}},
		// A one-frame list is built on the caller's stack; the cursor must
		// not make it escape.
		{"AddSharerN+ReleaseN/one", func() {
			must(m.AddSharerN([]MFN{mfns[0]}, 1))
			must(m.ReleaseN(2, []MFN{mfns[0]}))
		}},
		{"CopyFrameN/one", func() { must(m.CopyFrameN([]MFN{10}, []MFN{11}, meter)) }},
	} {
		if got := testing.AllocsPerRun(50, tc.op); got != 0 {
			t.Errorf("%s allocates %.0f times per call over %d one-page runs, want 0", tc.name, got, len(mfns))
		}
	}
}

// TestFragmentedLayoutEquivalence drives one operation sequence over the
// same frames twice — listed in ascending order on one pool, interleaved
// into one-page runs on a twin — and requires identical frame metadata,
// counters, usage and virtual time after every step: how the input splits
// into runs must not show in any result. The pool has four frame-table
// chunks per shard, so the contiguous lists split at chunk edges as well as
// at the shard edge.
func TestFragmentedLayoutEquivalence(t *testing.T) {
	const stride = 4 * frameChunk
	type twin struct {
		m     *Memory
		meter *vclock.Meter
		mfns  []MFN // the family's shared frames, over the shard edge
		kept  []MFN // frames dom 1 keeps owning until a lazy child adopts them, over a chunk edge
		left  []MFN // frames dom 1 keeps owning until they are zombies, over a chunk edge
	}
	build := func(order func([]MFN) []MFN) twin {
		m := newSharded(2*stride*PageSize, 2)
		if m.Stride() != stride {
			t.Fatalf("stride %d, test assumes %d", m.Stride(), stride)
		}
		if _, err := m.AllocN(1, m.TotalFrames(), nil); err != nil {
			t.Fatal(err)
		}
		return twin{m, vclock.NewMeter(nil),
			order(run(stride-300, 600)), order(run(frameChunk-40, 80)), order(run(stride+3*frameChunk-40, 80))}
	}
	a := build(func(f []MFN) []MFN { return f })
	b := build(interleave)

	release := func(tw twin) error { return tw.m.ReleaseN(2, tw.mfns) }
	errOf := func(_ int, err error) error { return err }
	steps := []struct {
		name string
		op   func(tw twin) error
	}{
		{"share", func(tw twin) error { return errOf(tw.m.sharePTEs(1, ptesOf(tw.mfns), 2, tw.meter)) }},
		{"addSharer", func(tw twin) error { return tw.m.addSharerPTEs(ptesOf(tw.mfns), 1) }},
		{"ShareN again", func(tw twin) error { return tw.m.ShareN(1, tw.mfns, 3, tw.meter) }},
		{"pledge", func(tw twin) error { return tw.m.pledgePTEs(ptesOf(tw.mfns)) }},
		{"pledge twice", func(tw twin) error { return tw.m.pledgePTEs(ptesOf(tw.mfns)) }},
		{"adopt", func(tw twin) error { return tw.m.adoptPledged(2, ptesOf(tw.mfns), tw.meter) }},
		{"cancel", func(tw twin) error { return tw.m.cancelPledged(ptesOf(tw.mfns)) }},
		{"pledge owned", func(tw twin) error {
			if err := tw.m.pledgePTEs(ptesOf(tw.kept)); err != nil {
				return err
			}
			return tw.m.pledgePTEs(ptesOf(tw.left))
		}},
		{"adopt owned", func(tw twin) error { return tw.m.adoptPledged(2, ptesOf(tw.kept), tw.meter) }},
		{"owner releases, leaving zombies", func(tw twin) error {
			if err := tw.m.releasePTEs(1, ptesOf(tw.kept)); err != nil {
				return err
			}
			return tw.m.releasePTEs(1, ptesOf(tw.left))
		}},
		{"cancel the zombies", func(tw twin) error { return tw.m.cancelPledged(ptesOf(tw.left)) }},
		{"adopter releases", func(tw twin) error { return tw.m.ReleaseN(2, tw.kept) }},
		{"releasePTEs", func(tw twin) error { return tw.m.releasePTEs(2, ptesOf(tw.mfns)) }},
		{"AddSharerN", func(tw twin) error { return tw.m.AddSharerN(tw.mfns, 2) }},
	}
	// share 2, addSharer +1, ShareN +2, adopt +1, releasePTEs -1, AddSharerN
	// +2: seven sharers are left to drop.
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
		if err := st.op(b); err != nil {
			t.Fatalf("%s (fragmented): %v", st.name, err)
		}
		if ia, ib := imageOf(a.m, 1, 2), imageOf(b.m, 1, 2); !reflect.DeepEqual(ia, ib) {
			t.Fatalf("after %s the pools differ: free %d/%d shared %d/%d used %v/%v",
				st.name, ia.Free, ib.Free, ia.Shared, ib.Shared, ia.Used, ib.Used)
		}
		if a.meter.Elapsed() != b.meter.Elapsed() {
			t.Fatalf("after %s virtual time differs: %v vs %v", st.name, a.meter.Elapsed(), b.meter.Elapsed())
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
// and leave the pool untouched wherever in the input the bad frame sits,
// AddSharerN undoes every bump it made, and the releasing operations skip
// the bad frame, process the rest and report the first error.
func TestFragmentedErrorPaths(t *testing.T) {
	const stride = 4096
	m := shardedPool(t)
	// Dom 1 fills its home shard and takes 100 frames of the next one, whose
	// remaining frames stay above the watermark: never allocated.
	owned, err := m.AllocN(1, stride+100, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, partial := owned[:stride], owned[stride:]
	var good []MFN // 100 one-page runs, half in each of the two shards
	for i := 0; i < 100; i += 2 {
		good = append(good, full[stride-100+i])
	}
	for i := 0; i < 100; i += 2 {
		good = append(good, partial[i])
	}
	spare := full[stride-99] // dom 1's, between two good frames, never shared or pledged
	outOfRange := MFN(m.TotalFrames() + 7)
	pastWatermark := partial[0] + 500
	foreigns, err := m.AllocN(9, 1, nil)
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
	}

	// The bad entry sits late in the list, past the shard edge, so the runs
	// before it have been walked (and, for AddSharerN, bumped) when it is met.
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
		untouched("ShareN/"+tc.name, tc.want, func() error { return m.ShareN(1, in, 2, nil) })
		untouched("sharePTEs/"+tc.name, tc.want, func() error {
			_, err := m.sharePTEs(1, ptesOf(in), 2, nil)
			return err
		})
	}
	in := with(good, 90, outOfRange)
	untouched("AddSharerN/out of range", ErrBadFrame, func() error { return m.AddSharerN(in, 1) })
	untouched("pledgePTEs/out of range", ErrBadFrame, func() error { return m.pledgePTEs(ptesOf(in)) })
	untouched("adoptPledged/out of range", ErrBadFrame, func() error { return m.adoptPledged(2, ptesOf(in), nil) })
	in = with(good, 90, pastWatermark)
	untouched("pledgePTEs/past watermark", ErrDoubleFree, func() error { return m.pledgePTEs(ptesOf(in)) })

	// Once the good frames are shared, AddSharerN's fused pass has bumped 90
	// runs in two shards when it meets the bad one, and must undo them all.
	if err := m.ShareN(1, good, 1, nil); err != nil {
		t.Fatal(err)
	}
	in = with(good, 90, spare)
	untouched("AddSharerN/not shared", ErrNotShared, func() error { return m.AddSharerN(in, 1) })
	in = with(good, 99, pastWatermark)
	untouched("addSharerPTEs/past watermark", ErrDoubleFree, func() error { return m.addSharerPTEs(ptesOf(in), 3) })

	// Once they are pledged, adopting a list with one unpledged frame fails
	// whole.
	if err := m.pledgePTEs(ptesOf(good)); err != nil {
		t.Fatal(err)
	}
	in = with(good, 70, spare)
	untouched("adoptPledged/not pledged", ErrNotPledged, func() error { return m.adoptPledged(2, ptesOf(in), nil) })

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

// TestFragmentedCloneReleaseStress is the -race stress for the streamed
// walks: children of two parents whose tables are all one-page runs are
// cloned and released concurrently — thousands of runs per unlocked mask
// walk and per locked pass, over shards both families share. A walk that
// lost or doubled a frame shows in the final accounting.
func TestFragmentedCloneReleaseStress(t *testing.T) {
	m := New(1 << 30)
	pages := 8 << 20 / PageSize
	iters := 40
	if testing.Short() {
		iters = 8
	}
	parents := make([]*Space, 2)
	for i := range parents {
		p, err := NewSpace(m, DomID(1+i), pages, nil)
		if err != nil {
			t.Fatal(err)
		}
		fragmentSpace(t, p, DomID(50+i))
		parents[i] = p
	}

	var wg sync.WaitGroup
	for p := range parents {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				child, _, err := parents[p].CloneOp(obs.OpCtx{}, DomID(100+10*p+i%5), false)
				if err != nil {
					t.Error(err)
					return
				}
				if err := child.Release(); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

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
