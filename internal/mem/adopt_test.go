package mem

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// adoptRig builds a cache-owner frame run (written, then transferred to
// dom_cow with the cache's own reference) plus a target space, the exact
// shape of a cached restore.
func adoptRig(t *testing.T, frames, pages, run int) (*Memory, *Space, []MFN) {
	t.Helper()
	m := newTestMem(frames)
	mfns, err := m.AllocN(obs.OpCtx{}, DomIDCache, run)
	if err != nil {
		t.Fatal(err)
	}
	for i, mfn := range mfns {
		if err := m.Write(mfn, 0, []byte{byte('a' + i%26)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ShareN(obs.OpCtx{}, DomIDCache, mfns, 1); err != nil {
		t.Fatal(err)
	}
	sp, err := NewSpace(obs.OpCtx{}, m, 7, pages)
	if err != nil {
		t.Fatal(err)
	}
	return m, sp, mfns
}

func TestAdoptSharedInstallsCOWMappings(t *testing.T) {
	m, sp, mfns := adoptRig(t, 256, 16, 8)
	free := m.FreeFrames()
	meter := vclock.NewMeter(nil)
	if err := sp.AdoptShared(obs.Ctx(meter), DomIDCache, 4, mfns); err != nil {
		t.Fatal(err)
	}
	// The 8 displaced private frames were freed; no new frames allocated.
	if got := m.FreeFrames(); got != free+8 {
		t.Fatalf("FreeFrames = %d, want %d", got, free+8)
	}
	for i, want := range mfns {
		pfn := PFN(4 + i)
		mfn, err := sp.MFNOf(pfn)
		if err != nil || mfn != want {
			t.Fatalf("pfn %d -> mfn %d (err %v), want %d", pfn, mfn, err, want)
		}
		if cow, _ := sp.IsCOW(pfn); !cow {
			t.Fatalf("pfn %d not COW after adopt", pfn)
		}
		if rc, _ := m.Refcount(want); rc != 2 {
			t.Fatalf("refcount(%d) = %d, want 2 (cache + child)", want, rc)
		}
		var buf [1]byte
		if err := sp.Read(pfn, 0, buf[:]); err != nil {
			t.Fatal(err)
		}
		if want := byte('a' + i%26); buf[0] != want {
			t.Fatalf("pfn %d reads %q, want %q", pfn, buf[0], want)
		}
	}
	// Adopt charges PTE + p2m rewrites, never page copies.
	want := meter.Costs().PTEntryClone*vclock.Duration(8) + meter.Costs().P2MEntryClone*vclock.Duration(8)
	if meter.Elapsed() != want {
		t.Fatalf("elapsed = %v, want %v", meter.Elapsed(), want)
	}
}

func TestAdoptSharedWriteBreaksCOW(t *testing.T) {
	m, sp, mfns := adoptRig(t, 256, 16, 4)
	if err := sp.AdoptShared(obs.OpCtx{}, DomIDCache, 0, mfns); err != nil {
		t.Fatal(err)
	}
	if err := sp.Write(1, 0, []byte("dirty"), nil); err != nil {
		t.Fatal(err)
	}
	// The child privatized its copy; the cache frame is untouched.
	var buf [5]byte
	if err := m.Read(mfns[1], 0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:1], []byte{'b'}) {
		t.Fatalf("cache frame mutated: %q", buf[:])
	}
	if rc, _ := m.Refcount(mfns[1]); rc != 1 {
		t.Fatalf("refcount after COW break = %d, want 1 (cache only)", rc)
	}
	if err := sp.Read(1, 0, buf[:]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[:], []byte("dirty")) {
		t.Fatalf("child reads %q", buf[:])
	}
}

func TestAdoptSharedReleaseDropsCacheRefs(t *testing.T) {
	m, sp, mfns := adoptRig(t, 256, 16, 4)
	if err := sp.AdoptShared(obs.OpCtx{}, DomIDCache, 0, mfns); err != nil {
		t.Fatal(err)
	}
	if err := sp.Release(); err != nil {
		t.Fatal(err)
	}
	for _, mfn := range mfns {
		if rc, _ := m.Refcount(mfn); rc != 1 {
			t.Fatalf("refcount(%d) = %d after child release, want 1", mfn, rc)
		}
	}
	// Dropping the cache's own reference frees everything.
	if err := m.ReleaseN(DomIDCache, mfns); err != nil {
		t.Fatal(err)
	}
	if got, want := m.FreeFrames(), m.TotalFrames(); got != want {
		t.Fatalf("FreeFrames = %d, want %d", got, want)
	}
}

func TestAdoptSharedValidationLeavesPoolUntouched(t *testing.T) {
	m, sp, mfns := adoptRig(t, 256, 16, 4)
	free := m.FreeFrames()
	// Out of range.
	if err := sp.AdoptShared(obs.OpCtx{}, DomIDCache, 14, mfns); err == nil {
		t.Fatal("out-of-range adopt succeeded")
	}
	// Non-regular target page.
	if err := sp.SetKind(2, KindConsole); err != nil {
		t.Fatal(err)
	}
	if err := sp.AdoptShared(obs.OpCtx{}, DomIDCache, 0, mfns); err == nil {
		t.Fatal("adopt over a console page succeeded")
	}
	if got := m.FreeFrames(); got != free {
		t.Fatalf("failed adopt moved frames: %d -> %d", free, got)
	}
	for _, mfn := range mfns {
		if rc, _ := m.Refcount(mfn); rc != 1 {
			t.Fatalf("failed adopt bumped refcount(%d) = %d", mfn, rc)
		}
	}
	// Retired space.
	if err := sp.Release(); err != nil {
		t.Fatal(err)
	}
	if err := sp.AdoptShared(obs.OpCtx{}, DomIDCache, 0, mfns); !errors.Is(err, ErrSpaceRetired) {
		t.Fatalf("adopt on retired space: %v", err)
	}
}

// TestAdoptSharedLongRunAllocsNothing adopts runs longer than the chunk of
// displaced frames AdoptShared releases at a time: no call allocates.
func TestAdoptSharedLongRunAllocsNothing(t *testing.T) {
	const run, runs = 2*adoptChunk + 17, 4
	_, sp, mfns := adoptRig(t, (runs+3)*run, (runs+1)*run, run)
	next := PFN(0)
	allocs := testing.AllocsPerRun(runs, func() {
		if err := sp.AdoptShared(obs.OpCtx{}, DomIDCache, next, mfns); err != nil {
			t.Fatal(err)
		}
		next += run
	})
	if allocs != 0 {
		t.Fatalf("AdoptShared of a %d-page run: %.0f allocs, want 0", run, allocs)
	}
}

// TestAdoptSharedRecyclesInOneListOrder checks that releasing the displaced
// frames chunk by chunk leaves the pool's recycled frames in the order one
// ReleaseN of them all, in pfn order, leaves them: the next AllocN returns
// the same frames in the same order, so every later allocation does too.
func TestAdoptSharedRecyclesInOneListOrder(t *testing.T) {
	const run = 2*adoptChunk + 17
	displaced := func(sp *Space) []MFN {
		old := make([]MFN, run)
		for i := range old {
			mfn, err := sp.MFNOf(PFN(i))
			if err != nil {
				t.Fatal(err)
			}
			old[i] = mfn
		}
		return old
	}

	m, sp, mfns := adoptRig(t, 4*run, run, run)
	if err := sp.AdoptShared(obs.OpCtx{}, DomIDCache, 0, mfns); err != nil {
		t.Fatal(err)
	}
	got, err := m.AllocN(obs.OpCtx{}, 9, run)
	if err != nil {
		t.Fatal(err)
	}

	// The same rig taken through one list: the share, then one ReleaseN of
	// every displaced frame.
	refM, refSp, refMFNs := adoptRig(t, 4*run, run, run)
	old := displaced(refSp)
	if err := refM.ShareN(obs.OpCtx{}, DomIDCache, refMFNs, 2); err != nil {
		t.Fatal(err)
	}
	if err := refM.ReleaseN(refSp.dom, old); err != nil {
		t.Fatal(err)
	}
	want, err := refM.AllocN(obs.OpCtx{}, 9, run)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("AllocN after a %d-page adopt = %v, one list gives %v", run, got, want)
	}
	// Recycled frames come back most recent first: the last pfn's first.
	if got[0] != old[run-1] || got[run-1] != old[0] {
		t.Fatalf("AllocN after adopt starts %d and ends %d, want %d and %d", got[0], got[run-1], old[run-1], old[0])
	}
}
