package mem

import (
	"bytes"
	"errors"
	"testing"

	"nephele/internal/obs"
)

// samePage reports whether a and b are the very same backing array.
func samePage(a, b []byte) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

func fullPage(b byte) []byte { return bytes.Repeat([]byte{b}, PageSize) }

func readPage(t *testing.T, s *Space, pfn PFN) []byte {
	t.Helper()
	buf := make([]byte, PageSize)
	if err := s.Read(pfn, 0, buf); err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestSnapshotSharesUntouchedPages: two snapshots of an untouched space
// return the same backing arrays; a page written in between comes back in
// a different one, and never-written pages stay nil.
func TestSnapshotSharesUntouchedPages(t *testing.T) {
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 8)
	for pfn := PFN(0); pfn < 4; pfn++ {
		if err := s.Write(pfn, 0, fullPage(byte(0x10+pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	first, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for pfn := 0; pfn < 4; pfn++ {
		if !samePage(first[pfn], second[pfn]) {
			t.Fatalf("pfn %d: unchanged page captured into a new array", pfn)
		}
	}
	for pfn := 4; pfn < 8; pfn++ {
		if first[pfn] != nil || second[pfn] != nil {
			t.Fatalf("pfn %d: never-written page has storage", pfn)
		}
	}
	if err := s.Write(2, 8, []byte("8 bytes!"), nil); err != nil {
		t.Fatal(err)
	}
	third, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if samePage(second[2], third[2]) {
		t.Fatal("written page captured in the array an earlier snapshot holds")
	}
	for _, pfn := range []int{0, 1, 3} {
		if !samePage(second[pfn], third[pfn]) {
			t.Fatalf("pfn %d: unchanged page captured into a new array", pfn)
		}
	}
	audit(t, m)
}

// TestSnapshotIsolatedFromWrites: whole-page writes, 8-byte writes and
// frame copies after a snapshot all land in the frame and leave the
// snapshot's bytes as captured.
func TestSnapshotIsolatedFromWrites(t *testing.T) {
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 4)
	for pfn := PFN(0); pfn < 4; pfn++ {
		if err := s.Write(pfn, 0, fullPage(byte(0xA0+pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, 0, fullPage(0x01), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, 16, []byte("8 bytes!"), nil); err != nil {
		t.Fatal(err)
	}
	mfn2, _ := s.MFNOf(2)
	mfn3, _ := s.MFNOf(3)
	if err := m.CopyFrameN(obs.OpCtx{}, []MFN{mfn2}, []MFN{mfn3}); err != nil {
		t.Fatal(err)
	}
	for pfn := 0; pfn < 4; pfn++ {
		if !bytes.Equal(snap[pfn], fullPage(byte(0xA0+pfn))) {
			t.Fatalf("pfn %d: snapshot bytes moved under a later write", pfn)
		}
	}
	if got := readPage(t, s, 0); !bytes.Equal(got, fullPage(0x01)) {
		t.Fatal("whole-page write after a snapshot is lost")
	}
	want := fullPage(0xA1)
	copy(want[16:], "8 bytes!")
	if got := readPage(t, s, 1); !bytes.Equal(got, want) {
		t.Fatal("8-byte write after a snapshot lost the rest of the page or the write")
	}
	if got := readPage(t, s, 2); !bytes.Equal(got, fullPage(0xA3)) {
		t.Fatal("CopyFrameN into a sealed frame is lost")
	}
	audit(t, m)
}

// TestWritePageInstallsByReference: a whole page is held, not copied; the
// frames that hold it and the caller's slice stay independent under
// writes; a short or a long page is refused.
func TestWritePageInstallsByReference(t *testing.T) {
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 4)
	page := fullPage(0x55)
	for pfn := PFN(0); pfn < 2; pfn++ {
		if err := s.WritePage(obs.OpCtx{}, pfn, page); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !samePage(snap[0], page) || !samePage(snap[1], page) {
		t.Fatal("WritePage copied a whole page")
	}
	if err := s.Write(0, 100, []byte("8 bytes!"), nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(page, fullPage(0x55)) {
		t.Fatal("a write through one frame reached the installed slice")
	}
	if got := readPage(t, s, 1); !bytes.Equal(got, fullPage(0x55)) {
		t.Fatal("a write through one frame reached the other frame holding the page")
	}
	want := fullPage(0x55)
	copy(want[100:], "8 bytes!")
	if got := readPage(t, s, 0); !bytes.Equal(got, want) {
		t.Fatal("write after WritePage lost the page or the write")
	}

	// A page of any other length cannot stand for a frame: it is refused,
	// and the frame keeps what it held.
	if err := s.WritePage(obs.OpCtx{}, 2, []byte("short page")); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("short page: %v, want ErrBadOffset", err)
	}
	if got := readPage(t, s, 2); !bytes.Equal(got, make([]byte, PageSize)) {
		t.Fatal("a refused short page changed the frame")
	}
	if err := s.WritePage(obs.OpCtx{}, 3, make([]byte, PageSize+1)); !errors.Is(err, ErrBadOffset) {
		t.Fatalf("oversized page: %v, want ErrBadOffset", err)
	}
	audit(t, m)
}

// TestSealedPageIdentityAtPoolBoundary: the pool holds a page as an array
// pointer and hands it out as a slice, and the conversions either way keep
// the backing array. Two captures of an unwritten-since frame return the
// same page; a page installed by WritePage — here one carved out of the
// middle of a larger buffer, as an image's pages are — comes back from a
// capture as itself, exactly one page long; and a write after either goes to
// a private copy, leaving the held page and its neighbours as they were.
func TestSealedPageIdentityAtPoolBoundary(t *testing.T) {
	m := newTestMem(16)
	mfns, err := m.AllocN(obs.OpCtx{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() [][]byte {
		t.Helper()
		pages, err := m.SnapshotFrames(mfns)
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	if err := m.Write(mfns[0], 0, fullPage(0x11)); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0x22}, 3*PageSize)
	p := buf[PageSize : 2*PageSize]
	if err := m.WritePage(mfns[1], p); err != nil {
		t.Fatal(err)
	}
	first, second := capture(), capture()
	if !samePage(first[0], second[0]) {
		t.Fatal("two captures of an unwritten frame returned different pages")
	}
	if !samePage(first[1], p) || !samePage(second[1], p) {
		t.Fatal("a capture of a frame holding an installed page did not return that page")
	}
	if len(first[1]) != PageSize || cap(first[1]) != PageSize {
		t.Fatalf("captured page has len %d cap %d, want one page", len(first[1]), cap(first[1]))
	}
	for _, mfn := range mfns {
		if err := m.Write(mfn, 8, []byte("8 bytes!")); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(first[0], fullPage(0x11)) {
		t.Fatal("a write after a capture reached the captured page")
	}
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x22}, 3*PageSize)) {
		t.Fatal("a write after WritePage reached the installed page or the buffer around it")
	}
	if third := capture(); samePage(third[0], first[0]) || samePage(third[1], p) {
		t.Fatal("a written frame still holds the page an earlier capture or the installer has")
	}
	audit(t, m)
}

// TestSealedPagesAcrossCOW: a snapshot of a parent whose frames are then
// family-shared stays put through the child's COW copies, the parent's
// last-sharer transfer, and a reuse of the freed frame.
func TestSealedPagesAcrossCOW(t *testing.T) {
	m := newTestMem(512)
	parent := newTestSpace(t, m, 1, 4)
	for pfn := PFN(0); pfn < 4; pfn++ {
		if err := parent.Write(pfn, 0, fullPage(byte(0xC0+pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := parent.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	child, _, err := parent.CloneOp(obs.OpCtx{}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := child.Write(0, 0, []byte("child wr"), nil); err != nil {
		t.Fatal(err)
	}
	if err := parent.Write(1, 0, []byte("parentwr"), nil); err != nil {
		t.Fatal(err)
	}
	if err := child.Release(); err != nil {
		t.Fatal(err)
	}
	// The parent is the last sharer of pfn 2 now: the frame comes back to
	// it still holding the array the snapshot has.
	if err := parent.Write(2, 0, []byte("lastshar"), nil); err != nil {
		t.Fatal(err)
	}
	for pfn := 0; pfn < 4; pfn++ {
		if !bytes.Equal(snap[pfn], fullPage(byte(0xC0+pfn))) {
			t.Fatalf("pfn %d: snapshot bytes moved", pfn)
		}
	}
	if err := parent.Release(); err != nil {
		t.Fatal(err)
	}
	// Freed frames come back unsealed and empty.
	again := newTestSpace(t, m, 3, 4)
	if err := again.Write(0, 0, []byte("reused"), nil); err != nil {
		t.Fatal(err)
	}
	for pfn := 0; pfn < 4; pfn++ {
		if !bytes.Equal(snap[pfn], fullPage(byte(0xC0+pfn))) {
			t.Fatalf("pfn %d: snapshot bytes moved after frame reuse", pfn)
		}
	}
	audit(t, m)
}

// TestSnapshotRacesGuestWriter: a guest writing its pages between
// snapshots of the same space never moves a snapshot taken before — a
// snapshot's pages are never the arrays the writer stores into — and each
// snapshot reads what the guest had written when it was taken.
func TestSnapshotRacesGuestWriter(t *testing.T) {
	m := newTestMem(512)
	s := newTestSpace(t, m, 1, 16)
	want := make([][]byte, 16)
	for pfn := range want {
		want[pfn] = fullPage(1)
		if err := s.Write(PFN(pfn), 0, want[pfn], nil); err != nil {
			t.Fatal(err)
		}
	}
	var snaps, wants [][][]byte
	for i := 0; i < 2000; i++ {
		pfn := i % 16
		if i%3 == 0 {
			want[pfn] = fullPage(byte(i))
			if err := s.Write(PFN(pfn), 0, want[pfn], nil); err != nil {
				t.Fatal(err)
			}
		} else {
			w := []byte{byte(i), 2, 3, 4, 5, 6, 7, 8}
			want[pfn] = append([]byte(nil), want[pfn]...)
			copy(want[pfn][(i%500)*8:], w)
			if err := s.Write(PFN(pfn), (i%500)*8, w, nil); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 0 {
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps, wants = append(snaps, snap), append(wants, append([][]byte(nil), want...))
		}
	}
	for i, snap := range snaps {
		for pfn, page := range snap {
			if !bytes.Equal(page, wants[i][pfn]) {
				t.Fatalf("snapshot %d, pfn %d: bytes moved after later guest writes", i, pfn)
			}
		}
	}
	audit(t, m)
}

// TestRecycledPageIsCleared: pages full of 0xFF that freed frames gave back
// to the page pool come out of it for partial writes to fresh frames, and
// everything around the written bytes must read as zeroes, as a
// never-written frame's bytes do.
func TestRecycledPageIsCleared(t *testing.T) {
	const n = 64
	m := newTestMem(4 * n)
	mfns, err := m.AllocN(obs.OpCtx{}, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, mfn := range mfns {
		if err := m.Write(mfn, 0, fullPage(0xFF)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.ReleaseN(1, mfns); err != nil {
		t.Fatal(err)
	}
	fresh, err := m.AllocN(obs.OpCtx{}, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, PageSize)
	copy(want[100:], "8 bytes!")
	for _, mfn := range fresh {
		if err := m.Write(mfn, 100, []byte("8 bytes!")); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, PageSize)
		if err := m.Read(mfn, 0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: a partial write to a fresh frame kept bytes of a freed page", mfn)
		}
	}
	audit(t, m)
}

// TestSealedPagesNeverRecycled: a snapshot of a child's private pages
// stays as captured after the child's reset frees the frames that held
// them and a sibling runs 1000 COW-fault and clone_reset cycles, whose
// private copies come from the page pool and go back to it. A sealed page
// never enters the pool.
func TestSealedPagesNeverRecycled(t *testing.T) {
	const pages, dirty = 16, 8
	m := newTestMem(1024)
	parent := newTestSpace(t, m, 1, pages)
	for pfn := PFN(0); pfn < pages; pfn++ {
		if err := parent.Write(pfn, 0, fullPage(byte(0x10+pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	held, _, err := parent.CloneOp(obs.OpCtx{}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Release()
	sibling, _, err := parent.CloneOp(obs.OpCtx{}, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sibling.Release()
	for pfn := PFN(0); pfn < dirty; pfn++ {
		if err := held.Write(pfn, 0, fullPage(byte(0xA0+pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := held.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(snap))
	for i, page := range snap {
		want[i] = bytes.Clone(page)
	}
	if n, err := held.ResetOp(obs.OpCtx{}, parent); err != nil || n != dirty {
		t.Fatalf("reset of the snapshotted child: restored %d, err %v", n, err)
	}
	for i := 0; i < 1000; i++ {
		for pfn := PFN(0); pfn < dirty; pfn++ {
			if err := sibling.Write(pfn, (i%500)*8, []byte{byte(i), 1, 2, 3, 4, 5, 6, 7}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sibling.ResetOp(obs.OpCtx{}, parent); err != nil {
			t.Fatal(err)
		}
	}
	for pfn := range snap {
		if !bytes.Equal(snap[pfn], want[pfn]) {
			t.Fatalf("pfn %d: a snapshot page changed under a sibling's faults and resets", pfn)
		}
	}
	audit(t, m)
}
