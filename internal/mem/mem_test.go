package mem

import (
	"errors"
	"testing"
	"testing/quick"

	"nephele/internal/vclock"
)

func newTestMem(frames int) *Memory {
	return New(uint64(frames) * PageSize)
}

// alloc1 allocates one frame for dom through the batched allocator.
func alloc1(t testing.TB, m *Memory, dom DomID) MFN {
	t.Helper()
	mfns, err := m.AllocN(dom, 1, nil)
	if err != nil {
		t.Fatalf("AllocN(%d, 1): %v", dom, err)
	}
	return mfns[0]
}

func TestAllocFree(t *testing.T) {
	m := newTestMem(8)
	mfn := alloc1(t, m, 1)
	if got := m.FreeFrames(); got != 7 {
		t.Fatalf("FreeFrames = %d, want 7", got)
	}
	if got := m.UsedBy(1); got != 1 {
		t.Fatalf("UsedBy(1) = %d, want 1", got)
	}
	if owner, _ := m.Owner(mfn); owner != 1 {
		t.Fatalf("Owner = %d, want 1", owner)
	}
	if err := m.ReleaseN(1, []MFN{mfn}); err != nil {
		t.Fatalf("ReleaseN: %v", err)
	}
	if got := m.FreeFrames(); got != 8 {
		t.Fatalf("after Free FreeFrames = %d, want 8", got)
	}
	if got := m.UsedBy(1); got != 0 {
		t.Fatalf("after Free UsedBy(1) = %d, want 0", got)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := newTestMem(2)
	if _, err := m.AllocN(1, 3, nil); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("AllocN beyond capacity: err = %v, want ErrOutOfMemory", err)
	}
	// Failed AllocN must not leak frames.
	if got := m.FreeFrames(); got != 2 {
		t.Fatalf("FreeFrames after failed AllocN = %d, want 2", got)
	}
	if _, err := m.AllocN(1, 2, nil); err != nil {
		t.Fatalf("AllocN exact capacity: %v", err)
	}
	if _, err := m.AllocN(1, 1, nil); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("AllocN when full: err = %v, want ErrOutOfMemory", err)
	}
}

func TestFreeWrongOwner(t *testing.T) {
	// A release on behalf of a domain that does not own the frame skips it
	// by contract (domain teardown walks tables that may name such frames).
	m := newTestMem(2)
	mfn := alloc1(t, m, 1)
	if err := m.ReleaseN(2, []MFN{mfn}); err != nil {
		t.Fatalf("ReleaseN by non-owner: %v", err)
	}
	if owner, _ := m.Owner(mfn); owner != 1 || m.FreeFrames() != 1 {
		t.Fatalf("release by non-owner moved the frame: owner %d, %d free", owner, m.FreeFrames())
	}
}

func TestDoubleFree(t *testing.T) {
	m := newTestMem(2)
	mfn := alloc1(t, m, 1)
	if err := m.ReleaseN(1, []MFN{mfn}); err != nil {
		t.Fatal(err)
	}
	if err := m.ReleaseN(1, []MFN{mfn}); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("double free: err = %v, want ErrDoubleFree", err)
	}
}

func TestReadZeroPage(t *testing.T) {
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	buf := []byte{1, 2, 3}
	if err := m.Read(mfn, 100, buf); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d of untouched frame = %d, want 0", i, b)
		}
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	want := []byte("nephele")
	if err := m.Write(mfn, 42, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if err := m.Read(mfn, 42, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("read back %q, want %q", got, want)
	}
}

func TestAccessCrossingPageBoundary(t *testing.T) {
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	buf := make([]byte, 8)
	if err := m.Write(mfn, PageSize-4, buf); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("cross-boundary write: err = %v, want ErrBadOffset", err)
	}
	if err := m.Read(mfn, -1, buf); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("negative-offset read: err = %v, want ErrBadOffset", err)
	}
}

func TestShareTransfersOwnershipToDomCOW(t *testing.T) {
	m := newTestMem(2)
	mfn := alloc1(t, m, 1)
	if err := m.ShareN(1, []MFN{mfn}, 2, nil); err != nil {
		t.Fatal(err)
	}
	if owner, _ := m.Owner(mfn); owner != DomIDCOW {
		t.Fatalf("owner after Share = %d, want dom_cow", owner)
	}
	if rc, _ := m.Refcount(mfn); rc != 2 {
		t.Fatalf("refcount = %d, want 2", rc)
	}
	if m.SharedFrames() != 1 {
		t.Fatalf("SharedFrames = %d, want 1", m.SharedFrames())
	}
	if m.UsedBy(1) != 0 {
		t.Fatalf("UsedBy(1) after share = %d, want 0", m.UsedBy(1))
	}
}

func TestShareByNonOwnerFails(t *testing.T) {
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	if err := m.ShareN(9, []MFN{mfn}, 2, nil); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("Share by non-owner: err = %v, want ErrNotOwner", err)
	}
}

func TestCopyOnWriteWithSharersCopies(t *testing.T) {
	m := newTestMem(4)
	mfn := alloc1(t, m, 1)
	if err := m.Write(mfn, 0, []byte("parent data")); err != nil {
		t.Fatal(err)
	}
	if err := m.ShareN(1, []MFN{mfn}, 2, nil); err != nil {
		t.Fatal(err)
	}
	newMFN, err := m.resolveCOW(2, mfn, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newMFN == mfn {
		t.Fatal("fault with 2 sharers returned the shared frame")
	}
	// Contents must have been copied.
	got := make([]byte, 11)
	if err := m.Read(newMFN, 0, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != "parent data" {
		t.Fatalf("copied frame contents = %q", got)
	}
	if owner, _ := m.Owner(newMFN); owner != 2 {
		t.Fatalf("new frame owner = %d, want 2", owner)
	}
	if rc, _ := m.Refcount(mfn); rc != 1 {
		t.Fatalf("shared frame refcount after fault = %d, want 1", rc)
	}
}

func TestCopyOnWriteLastSharerTransfersOwnership(t *testing.T) {
	// §5.2: when the refcount reaches one, the next fault transfers
	// ownership from dom_cow to the faulting domain, which may differ
	// from the original owner.
	m := newTestMem(4)
	mfn := alloc1(t, m, 1)
	m.Write(mfn, 0, []byte("x"))
	if err := m.ShareN(1, []MFN{mfn}, 2, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.resolveCOW(1, mfn, nil); err != nil { // parent faults, copies
		t.Fatal(err)
	}
	got, err := m.resolveCOW(2, mfn, nil) // child is last sharer
	if err != nil {
		t.Fatal(err)
	}
	if got != mfn {
		t.Fatalf("last-sharer fault allocated a copy (%d), want ownership transfer of %d", got, mfn)
	}
	if owner, _ := m.Owner(mfn); owner != 2 {
		t.Fatalf("owner after last-sharer fault = %d, want 2 (the faulting domain)", owner)
	}
	if m.SharedFrames() != 0 {
		t.Fatalf("SharedFrames = %d, want 0", m.SharedFrames())
	}
}

func TestCopyOnWriteUnsharedFrameFails(t *testing.T) {
	// A frame some other domain owns outright is neither shared nor the
	// faulting domain's to un-protect.
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	if _, err := m.resolveCOW(2, mfn, nil); !errors.Is(err, ErrNotShared) {
		t.Fatalf("fault on a foreign private frame: err = %v, want ErrNotShared", err)
	}
	if owner, _ := m.Owner(mfn); owner != 1 || m.FreeFrames() != 0 {
		t.Fatalf("failed fault moved the frame: owner %d, %d free", owner, m.FreeFrames())
	}
}

// TestResolveCOWOwnedFrame covers the two states lazy cloning adds to the
// write-fault resolver: a frame the faulting domain still owns, with and
// without outstanding pledges.
func TestResolveCOWOwnedFrame(t *testing.T) {
	m := newTestMem(4)
	mfn := alloc1(t, m, 1)
	m.Write(mfn, 0, []byte("clone-time"))
	ptes := ptesOf([]MFN{mfn})
	if err := m.pledgePTEs(ptes); err != nil {
		t.Fatal(err)
	}

	// Pledged: converted (one PageShare), then copied away (PageAlloc +
	// PageUnshare); the original survives as a zombie for the lazy child.
	meter := vclock.NewMeter(nil)
	got, err := m.resolveCOW(1, mfn, meter)
	if err != nil {
		t.Fatal(err)
	}
	c := meter.Costs()
	if want := c.PageShare + c.PageAlloc + c.PageUnshare; got == mfn || meter.Elapsed() != want {
		t.Fatalf("pledged fault: mfn %d (source %d), charged %v, want a copy for %v", got, mfn, meter.Elapsed(), want)
	}
	owner, _ := m.Owner(mfn)
	if rc, _ := m.Refcount(mfn); owner != DomIDCOW || rc != 0 || m.SharedFrames() != 1 {
		t.Fatalf("source after pledged fault: owner %d refcount %d, %d shared; want a dom_cow zombie", owner, rc, m.SharedFrames())
	}
	buf := make([]byte, 10)
	m.Read(got, 0, buf)
	if string(buf) != "clone-time" {
		t.Fatalf("private copy reads %q", buf)
	}
	if err := m.cancelPledged(ptes); err != nil || m.FreeFrames() != 3 {
		t.Fatalf("cancelling the last pledge: err %v, %d free, want the zombie freed", err, m.FreeFrames())
	}

	// Not pledged (any more): the stale protection is lifted in place.
	meter = vclock.NewMeter(nil)
	same, err := m.resolveCOW(1, got, meter)
	if err != nil || same != got || meter.Elapsed() != c.PageUnshare {
		t.Fatalf("unpledged fault: mfn %d err %v charged %v, want %d in place for one PageUnshare", same, err, meter.Elapsed(), got)
	}
	if owner, _ := m.Owner(got); owner != 1 || m.UsedBy(1) != 1 || m.FreeFrames() != 3 {
		t.Fatalf("unpledged fault moved the frame: owner %d", owner)
	}
}

func TestDropSharedFreesAtZero(t *testing.T) {
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	m.ShareN(1, []MFN{mfn}, 2, nil)
	if err := m.ReleaseN(2, []MFN{mfn}); err != nil {
		t.Fatal(err)
	}
	if m.FreeFrames() != 0 {
		t.Fatal("frame freed too early")
	}
	if err := m.ReleaseN(2, []MFN{mfn}); err != nil {
		t.Fatal(err)
	}
	if m.FreeFrames() != 1 {
		t.Fatal("frame not freed when last sharer dropped")
	}
}

func TestAddSharer(t *testing.T) {
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	m.ShareN(1, []MFN{mfn}, 2, nil)
	if err := m.AddSharerN([]MFN{mfn}, 3); err != nil {
		t.Fatal(err)
	}
	if rc, _ := m.Refcount(mfn); rc != 5 {
		t.Fatalf("refcount = %d, want 5", rc)
	}
}

func TestShareAlreadySharedAddsRefs(t *testing.T) {
	m := newTestMem(1)
	mfn := alloc1(t, m, 1)
	m.ShareN(1, []MFN{mfn}, 2, nil)
	// Cloning a clone re-shares the same frame: refs-1 new sharers.
	if err := m.ShareN(2, []MFN{mfn}, 2, nil); err != nil {
		t.Fatal(err)
	}
	if rc, _ := m.Refcount(mfn); rc != 3 {
		t.Fatalf("refcount = %d, want 3", rc)
	}
}

func TestCopyFrame(t *testing.T) {
	m := newTestMem(2)
	a, b := alloc1(t, m, 1), alloc1(t, m, 1)
	m.Write(a, 8, []byte("copy me"))
	meter := vclock.NewMeter(nil)
	if err := m.CopyFrameN([]MFN{b}, []MFN{a}, meter); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	m.Read(b, 8, got)
	if string(got) != "copy me" {
		t.Fatalf("copied contents = %q", got)
	}
	if meter.Elapsed() != meter.Costs().PageCopy {
		t.Fatalf("meter charged %v, want one PageCopy (%v)", meter.Elapsed(), meter.Costs().PageCopy)
	}
}

func TestAccountingInvariantProperty(t *testing.T) {
	// Property: after any sequence of alloc/free/share/fault operations,
	// used + free == total and per-domain counts sum to used.
	f := func(ops []uint8) bool {
		m := newTestMem(32)
		var owned []MFN  // frames owned by dom 1
		var shared []MFN // frames owned by dom_cow
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if mfns, err := m.AllocN(1, 1, nil); err == nil {
					owned = append(owned, mfns[0])
				}
			case 1:
				if len(owned) > 0 {
					mfn := owned[len(owned)-1]
					owned = owned[:len(owned)-1]
					if err := m.ReleaseN(1, []MFN{mfn}); err != nil {
						return false
					}
				}
			case 2:
				if len(owned) > 0 {
					mfn := owned[len(owned)-1]
					owned = owned[:len(owned)-1]
					if err := m.ShareN(1, []MFN{mfn}, 2, nil); err != nil {
						return false
					}
					shared = append(shared, mfn)
				}
			case 3:
				if len(shared) > 0 {
					mfn := shared[len(shared)-1]
					if newMFN, err := m.resolveCOW(2, mfn, nil); err == nil {
						if newMFN == mfn {
							shared = shared[:len(shared)-1]
						}
						// Either way dom 2 now owns a frame;
						// leave it allocated.
					}
				}
			}
			total := m.TotalFrames()
			free := m.FreeFrames()
			used := 0
			for _, d := range []DomID{1, 2, DomIDCOW} {
				used += m.UsedBy(d)
			}
			if used+free != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
