package mem

import (
	"errors"
	"sync"
	"testing"

	"nephele/internal/obs"
)

// shardedPool builds a pool whose layout the boundary tests rely on:
// 65536 frames in 16 shards of 4096 (stride 4096).
func shardedPool(t *testing.T) *Memory {
	t.Helper()
	m := New(65536 * PageSize)
	if m.Shards() != 16 || m.Stride() != 4096 {
		t.Fatalf("pool layout changed: %d shards, stride %d (test assumes 16×4096)",
			m.Shards(), m.Stride())
	}
	return m
}

// newSharded builds a pool of totalBytes split into nsh shards, for the tests
// that need a geometry New does not pick for that size.
func newSharded(totalBytes uint64, nsh int) *Memory {
	total := int(totalBytes / PageSize)
	return &Memory{total: total, lay: newLayout(total, nsh)}
}

// TestPoolGeometry pins what New computes for the pool sizes the tree uses,
// and the first frames the 12 GiB hv.DefaultConfig machine hands its first
// domains: the geometry decides every MFN the pool gives out, so a change to
// the shard-count rule or the home-shard hash has to be made here too.
func TestPoolGeometry(t *testing.T) {
	for _, tc := range []struct {
		bytes          uint64
		shards, stride int
	}{
		{4 << 20, 1, 1024},
		{1 << 30, 16, 16384},
		{2 << 30, 16, 32768},
		{12 << 30, 16, 262144}, // 12 ranges hold frames, the last 4 are empty
	} {
		if m := New(tc.bytes); m.Shards() != tc.shards || m.Stride() != tc.stride {
			t.Errorf("New(%d MB): %d shards of %d frames, want %d of %d",
				tc.bytes>>20, m.Shards(), m.Stride(), tc.shards, tc.stride)
		}
	}
	m := New(12 << 30)
	// Home shards 9, 3 and 13; 13 is an empty tail range, so domain 3 wraps
	// around to shard 0.
	for dom, want := range map[DomID]MFN{1: 9 * 262144, 2: 3 * 262144, 3: 0} {
		got, err := m.AllocN(dom, 2, nil)
		if err != nil || got[0] != want || got[1] != want+1 {
			t.Errorf("AllocN(%d, 2) = %v, %v; want the run at %d", dom, got, err, want)
		}
	}
}

// TestHomeShardDistribution: sequential DomIDs — exactly what hv.nextDom
// hands out to the children of one round — must spread across shards instead
// of marching over neighbours in lockstep like a dom % nshards mapping would.
// With 64 sequential IDs over 16 shards a perfectly uniform deal is 4 per
// shard; the multiplicative hash is required to stay within 3x of uniform
// on every shard and to hit at least half the shards.
func TestHomeShardDistribution(t *testing.T) {
	lay := shardedPool(t).lay
	nsh := len(lay.shards)
	for _, base := range []DomID{1, 100, 7000} {
		counts := make([]int, nsh)
		hit := 0
		const doms = 64
		for i := 0; i < doms; i++ {
			h := lay.homeShard(base + DomID(i))
			if h < 0 || h >= nsh {
				t.Fatalf("homeShard(%d) = %d out of range", base+DomID(i), h)
			}
			if counts[h] == 0 {
				hit++
			}
			counts[h]++
		}
		if hit < nsh/2 {
			t.Errorf("base %d: %d sequential domains hit only %d of %d shards: %v",
				base, doms, hit, nsh, counts)
		}
		for sh, c := range counts {
			if c > 3*doms/nsh {
				t.Errorf("base %d: shard %d got %d of %d domains (uniform %d)",
					base, sh, c, doms, doms/nsh)
			}
		}
	}
}

// poolState is everything a pool exposes about its frames through the
// public API: the aggregate counters, every domain's usage, and each
// in-use frame's owner, refcount and a content probe.
type poolState struct {
	Free   int
	Shared int
	UsedBy map[DomID]int
	Frames map[MFN]frameState
}

type frameState struct {
	Owner    DomID
	Refcount int
	Probe    [8]byte
}

// capturePoolState reads the pool's full observable state. doms is the set
// of domain IDs whose usage to record (discovered owners are added).
func capturePoolState(t *testing.T, m *Memory, doms []DomID) poolState {
	t.Helper()
	st := poolState{
		Free:   m.FreeFrames(),
		Shared: m.SharedFrames(),
		UsedBy: make(map[DomID]int),
		Frames: make(map[MFN]frameState),
	}
	seen := map[DomID]bool{}
	for mfn := MFN(0); int(mfn) < m.TotalFrames(); mfn++ {
		owner, err := m.Owner(mfn)
		if err != nil {
			continue // free frame
		}
		rc, err := m.Refcount(mfn)
		if err != nil {
			t.Fatalf("Refcount(%d): %v", mfn, err)
		}
		fs := frameState{Owner: owner, Refcount: rc}
		if err := m.Read(mfn, 0, fs.Probe[:]); err != nil {
			t.Fatalf("Read(%d): %v", mfn, err)
		}
		st.Frames[mfn] = fs
		seen[owner] = true
	}
	for _, d := range doms {
		seen[d] = true
	}
	for d := range seen {
		st.UsedBy[d] = m.UsedBy(d)
	}
	return st
}

// run returns the contiguous MFNs [start, start+n).
func run(start, n int) []MFN {
	mfns := make([]MFN, n)
	for i := range mfns {
		mfns[i] = MFN(start + i)
	}
	return mfns
}

// TestShardBoundaryRuns drives the batched ops over runs that straddle 0,
// 1 and 2 shard edges and checks ownership, refcounts and the aggregated
// counters after every step. The pool is fully allocated to one domain so
// any MFN range is a valid run.
func TestShardBoundaryRuns(t *testing.T) {
	const stride = 4096
	cases := []struct {
		name  string
		start int
		n     int
		edges int
	}{
		{"inside-shard", 100, 50, 0},
		{"starts-at-edge", stride, 64, 0},
		{"ends-at-edge", stride - 96, 96, 0},
		{"exactly-one-shard", 0, stride, 0},
		{"one-edge", stride - 6, 100, 1},
		{"one-edge-high-shards", 14*stride - 3, 7, 1},
		{"two-edges", stride - 6, stride + 12, 2},
		{"two-edges-full-middle", stride - 1, stride + 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := shardedPool(t)
			total := m.TotalFrames()
			if _, err := m.AllocN(1, total, nil); err != nil {
				t.Fatal(err)
			}
			mfns := run(tc.start, tc.n)

			// The run must actually cross the edges the case claims.
			firstSh := int(mfns[0]) / m.Stride()
			lastSh := int(mfns[len(mfns)-1]) / m.Stride()
			if got := lastSh - firstSh; got != tc.edges {
				t.Fatalf("run crosses %d edges, case expects %d", got, tc.edges)
			}

			if err := m.ShareN(1, mfns, 1, nil); err != nil {
				t.Fatal(err)
			}
			if got := m.SharedFrames(); got != tc.n {
				t.Fatalf("SharedFrames = %d, want %d", got, tc.n)
			}
			if got := m.UsedBy(1); got != total-tc.n {
				t.Fatalf("UsedBy(1) = %d, want %d", got, total-tc.n)
			}
			// Probe ownership at the run ends and at every shard edge the
			// run crosses.
			probes := []MFN{mfns[0], mfns[len(mfns)-1]}
			for sh := firstSh + 1; sh <= lastSh; sh++ {
				probes = append(probes, MFN(sh*stride-1), MFN(sh*stride))
			}
			for _, p := range probes {
				if owner, _ := m.Owner(p); owner != DomIDCOW {
					t.Fatalf("frame %d owner = %d after ShareN", p, owner)
				}
				if rc, _ := m.Refcount(p); rc != 1 {
					t.Fatalf("frame %d refcount = %d after ShareN", p, rc)
				}
			}

			if err := m.AddSharerN(mfns, 2); err != nil {
				t.Fatal(err)
			}
			for _, p := range probes {
				if rc, _ := m.Refcount(p); rc != 3 {
					t.Fatalf("frame %d refcount = %d after AddSharerN(2)", p, rc)
				}
			}

			// Three releases drop the three sharers; the run is free again.
			for i := 0; i < 3; i++ {
				if err := m.ReleaseN(2, mfns); err != nil {
					t.Fatal(err)
				}
			}
			if got := m.FreeFrames(); got != tc.n {
				t.Fatalf("FreeFrames = %d after all sharers released, want %d", got, tc.n)
			}
			if got := m.SharedFrames(); got != 0 {
				t.Fatalf("SharedFrames = %d after all sharers released", got)
			}
			if got := m.UsedBy(DomIDCOW); got != 0 {
				t.Fatalf("UsedBy(dom_cow) = %d after all sharers released", got)
			}
		})
	}
}

// TestShardBoundaryValidationAtomic: a failure in the run's LAST shard
// must leave frames in the earlier shards untouched — ShareN validates
// every shard before mutating any, AddSharerN rolls its fused pass back.
func TestShardBoundaryValidationAtomic(t *testing.T) {
	const stride = 4096
	m := shardedPool(t)
	if _, err := m.AllocN(1, m.TotalFrames(), nil); err != nil {
		t.Fatal(err)
	}
	// Run crossing one edge; poison a frame past the edge.
	mfns := run(stride-50, 100)
	bad := MFN(stride + 40)
	if err := m.ReleaseN(1, []MFN{bad}); err != nil {
		t.Fatal(err)
	}
	if err := m.ShareN(1, mfns, 1, nil); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("ShareN over freed frame: %v", err)
	}
	if got := m.SharedFrames(); got != 0 {
		t.Fatalf("failed ShareN left %d shared frames", got)
	}
	if owner, _ := m.Owner(mfns[0]); owner != 1 {
		t.Fatalf("failed ShareN mutated first shard: owner %d", owner)
	}

	// Share everything but the poisoned frame, then AddSharerN over the
	// full run: the fused pass bumps the first shard before discovering
	// the bad frame, and must undo those bumps exactly.
	good := make([]MFN, 0, len(mfns)-1)
	for _, f := range mfns {
		if f != bad {
			good = append(good, f)
		}
	}
	if err := m.ShareN(1, good, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.AddSharerN(mfns, 2); err == nil {
		t.Fatal("AddSharerN over freed frame succeeded")
	}
	for _, f := range good {
		if rc, _ := m.Refcount(f); rc != 1 {
			t.Fatalf("frame %d refcount = %d after rolled-back AddSharerN, want 1", f, rc)
		}
	}
}

// TestSnapshotDuringConcurrentClones is the lock-order regression test for
// Snapshot vs. ReleaseN: four parents clone and release on the shared pool
// while a fifth space snapshots and the aggregate counters are read, all
// under -race. Shard locks are only ever taken in ascending order, so this
// must neither deadlock nor trip the race detector.
func TestSnapshotDuringConcurrentClones(t *testing.T) {
	m := New(1 << 30)
	const parents = 4
	pages := 4 << 20 / PageSize

	victim, err := NewSpace(m, DomID(99), pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	pattern := []byte("snapshot invariant")
	victim.Write(3, 0, pattern, nil)

	spaces := make([]*Space, parents)
	for i := range spaces {
		sp, err := NewSpace(m, DomID(1+i), pages, nil)
		if err != nil {
			t.Fatal(err)
		}
		spaces[i] = sp
	}

	iters := 30
	if testing.Short() {
		iters = 5
	}
	var wg sync.WaitGroup
	for p := range spaces {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				child, _, err := spaces[p].CloneOp(obs.OpCtx{}, DomID(10+parents*i+p), false)
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			pgs, err := victim.Snapshot()
			if err != nil {
				t.Error(err)
				return
			}
			if got := pgs[3][:len(pattern)]; string(got) != string(pattern) {
				t.Errorf("snapshot page 3 = %q", got)
				return
			}
			runs, err := victim.SnapshotRuns()
			if err != nil || len(runs) == 0 {
				t.Errorf("SnapshotRuns: %d runs, err %v", len(runs), err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters*4; i++ {
			if m.FreeFrames() < 0 || m.SharedFrames() < 0 {
				t.Error("negative aggregate counter")
				return
			}
			m.UsedBy(DomIDCOW)
		}
	}()
	wg.Wait()

	// Quiescent accounting: every child released, so only the five parent
	// spaces hold memory.
	if got := m.SharedFrames(); got < 0 {
		t.Fatalf("SharedFrames = %d", got)
	}
}
