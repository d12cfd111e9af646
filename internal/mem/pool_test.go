package mem

import (
	"errors"
	"testing"

	"nephele/internal/obs"
)

// TestPoolGeometry pins the frame table a 12 GiB pool, the default platform
// machine, starts with, and the first frames it hands its first domains:
// allocation order decides every MFN the pool gives out, so a change to it
// has to be made here too.
func TestPoolGeometry(t *testing.T) {
	m := New(12 << 30)
	if got, want := len(m.chunks), 12<<30/PageSize/frameChunk; m.TotalFrames() != 12<<30/PageSize || got != want {
		t.Fatalf("%d frames in %d chunks, want %d in %d", m.TotalFrames(), got, 12<<30/PageSize, want)
	}
	for _, tc := range []struct {
		dom  DomID
		want MFN
	}{{1, 0}, {2, 2}, {3, 4}} {
		got, err := m.AllocN(obs.OpCtx{}, tc.dom, 2)
		if err != nil || got[0] != tc.want || got[1] != tc.want+1 {
			t.Errorf("AllocN(%d, 2) = %v, %v; want the run at %d", tc.dom, got, err, tc.want)
		}
	}
	// A freed run is handed out again most recent frame first.
	if err := m.ReleaseN(2, []MFN{2, 3}); err != nil {
		t.Fatal(err)
	}
	if got, err := m.AllocN(obs.OpCtx{}, 4, 3); err != nil || got[0] != 3 || got[1] != 2 || got[2] != 6 {
		t.Errorf("AllocN(4, 3) after freeing 2 and 3 = %v, %v; want [3 2 6]", got, err)
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
		owner, err := ownerOf(m, mfn)
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
// 1 and 2 edges of the frame table's 4096-frame chunks, which sit where the
// edges of a 16-way sharded 64 Ki-frame pool would, and checks ownership,
// refcounts and the counters after every step. The pool is fully allocated
// to one domain so any MFN range is a valid run.
func TestShardBoundaryRuns(t *testing.T) {
	const stride = frameChunk
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
			m := New(65536 * PageSize)
			total := m.TotalFrames()
			if _, err := m.AllocN(obs.OpCtx{}, 1, total); err != nil {
				t.Fatal(err)
			}
			mfns := run(tc.start, tc.n)

			// The run must actually cross the edges the case claims.
			firstCh := int(mfns[0]) / stride
			lastCh := int(mfns[len(mfns)-1]) / stride
			if got := lastCh - firstCh; got != tc.edges {
				t.Fatalf("run crosses %d edges, case expects %d", got, tc.edges)
			}

			if err := m.ShareN(obs.OpCtx{}, 1, mfns, 1); err != nil {
				t.Fatal(err)
			}
			if got := m.SharedFrames(); got != tc.n {
				t.Fatalf("SharedFrames = %d, want %d", got, tc.n)
			}
			if got := m.UsedBy(1); got != total-tc.n {
				t.Fatalf("UsedBy(1) = %d, want %d", got, total-tc.n)
			}
			// Probe ownership at the run ends and at every chunk edge the
			// run crosses.
			probes := []MFN{mfns[0], mfns[len(mfns)-1]}
			for ch := firstCh + 1; ch <= lastCh; ch++ {
				probes = append(probes, MFN(ch*stride-1), MFN(ch*stride))
			}
			for _, p := range probes {
				if owner, _ := ownerOf(m, p); owner != DomIDCOW {
					t.Fatalf("frame %d owner = %d after ShareN", p, owner)
				}
				if rc, _ := m.Refcount(p); rc != 1 {
					t.Fatalf("frame %d refcount = %d after ShareN", p, rc)
				}
			}

			if err := m.ShareN(obs.OpCtx{}, 1, mfns, 3); err != nil {
				t.Fatal(err)
			}
			for _, p := range probes {
				if rc, _ := m.Refcount(p); rc != 3 {
					t.Fatalf("frame %d refcount = %d after sharing twice more", p, rc)
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
			if err := m.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardBoundaryValidationAtomic: a failure in the run's LAST chunk
// must leave frames in the earlier chunk untouched — ShareN's walk bumps
// the frames before the failure and must take every bump back.
func TestShardBoundaryValidationAtomic(t *testing.T) {
	const stride = frameChunk
	m := New(65536 * PageSize)
	if _, err := m.AllocN(obs.OpCtx{}, 1, m.TotalFrames()); err != nil {
		t.Fatal(err)
	}
	// Run crossing one edge; poison a frame past the edge.
	mfns := run(stride-50, 100)
	bad := MFN(stride + 40)
	if err := m.ReleaseN(1, []MFN{bad}); err != nil {
		t.Fatal(err)
	}
	if err := m.ShareN(obs.OpCtx{}, 1, mfns, 1); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("ShareN over freed frame: %v", err)
	}
	if got := m.SharedFrames(); got != 0 {
		t.Fatalf("failed ShareN left %d shared frames", got)
	}
	if owner, _ := ownerOf(m, mfns[0]); owner != 1 {
		t.Fatalf("failed ShareN mutated the first chunk: owner %d", owner)
	}

	// Share everything but the poisoned frame, then share the full run
	// again: the walk bumps the first chunk before it meets the bad frame,
	// and must undo those bumps exactly.
	good := make([]MFN, 0, len(mfns)-1)
	for _, f := range mfns {
		if f != bad {
			good = append(good, f)
		}
	}
	if err := m.ShareN(obs.OpCtx{}, 1, good, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.ShareN(obs.OpCtx{}, 1, mfns, 3); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("ShareN over freed frame: %v", err)
	}
	for _, f := range good {
		if rc, _ := m.Refcount(f); rc != 1 {
			t.Fatalf("frame %d refcount = %d after rolled-back ShareN, want 1", f, rc)
		}
	}
}
