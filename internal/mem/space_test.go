package mem

import (
	"errors"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// newTestSpace builds a space of n pages for dom inside a memory pool big
// enough for several clones.
func newTestSpace(t *testing.T, m *Memory, dom DomID, pages int) *Space {
	t.Helper()
	s, err := NewSpace(obs.Ctx(vclock.NewMeter(nil)), m, dom, pages)
	if err != nil {
		t.Fatalf("NewSpace: %v", err)
	}
	return s
}

func TestPTFrameCount(t *testing.T) {
	cases := []struct{ pages, want int }{
		{0, 1},
		{1, 3},   // 1 L1 + 1 L2 + root
		{512, 3}, // exactly one L1 frame
		{513, 4}, // two L1 frames
		{512 * 512, 512 + 1 + 1},
	}
	for _, c := range cases {
		if got := PTFrameCount(c.pages); got != c.want {
			t.Errorf("PTFrameCount(%d) = %d, want %d", c.pages, got, c.want)
		}
	}
}

func TestP2MFrameCount(t *testing.T) {
	cases := []struct{ pages, want int }{
		{0, 1},
		{1, 1},
		{512, 1}, // 512*8 = 4096 bytes = 1 frame
		{513, 2},
		{1024, 2},
	}
	for _, c := range cases {
		if got := P2MFrameCount(c.pages); got != c.want {
			t.Errorf("P2MFrameCount(%d) = %d, want %d", c.pages, got, c.want)
		}
	}
}

func TestSpaceReadWrite(t *testing.T) {
	m := newTestMem(64)
	s := newTestSpace(t, m, 1, 4)
	if err := s.Write(2, 10, []byte("hello"), nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := s.Read(2, 10, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Fatalf("read %q", buf)
	}
}

func TestSpaceBadPFN(t *testing.T) {
	m := newTestMem(64)
	s := newTestSpace(t, m, 1, 4)
	if err := s.Read(99, 0, make([]byte, 1)); !errors.Is(err, ErrBadPFN) {
		t.Fatalf("Read bad pfn: %v, want ErrBadPFN", err)
	}
}

func TestSpaceReadOnlyWriteFails(t *testing.T) {
	m := newTestMem(64)
	s := newTestSpace(t, m, 1, 4)
	if err := s.SetWritable(1, false); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, 0, []byte("x"), nil); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write to ro page: %v, want ErrReadOnly", err)
	}
}

func TestCloneSharesRegularPages(t *testing.T) {
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 8)
	s.Write(0, 0, []byte("shared content"), nil)

	child, st, err := s.CloneOp(obs.Ctx(vclock.NewMeter(nil)), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedPages != 8 {
		t.Fatalf("SharedPages = %d, want 8", st.SharedPages)
	}
	// Child reads the parent's data through the shared frame.
	buf := make([]byte, 14)
	if err := child.Read(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "shared content" {
		t.Fatalf("child read %q", buf)
	}
	// Parent and child map the same machine frame, owned by dom_cow.
	pm, _ := s.MFNOf(0)
	cm, _ := child.MFNOf(0)
	if pm != cm {
		t.Fatalf("parent mfn %d != child mfn %d", pm, cm)
	}
	if owner, _ := ownerOf(m, pm); owner != DomIDCOW {
		t.Fatalf("shared frame owner = %d, want dom_cow", owner)
	}
}

func TestCloneCOWIsolation(t *testing.T) {
	// After cloning, writes on either side must not be visible to the
	// other — the defining fork() property.
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 4)
	s.Write(0, 0, []byte("original"), nil)
	child, _, err := s.CloneOp(obs.OpCtx{}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(0, 0, []byte("parent!!"), nil); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	child.Read(0, 0, buf)
	if string(buf) != "original" {
		t.Fatalf("child sees parent write: %q", buf)
	}
	if err := child.Write(0, 0, []byte("child!!!"), nil); err != nil {
		t.Fatal(err)
	}
	s.Read(0, 0, buf)
	if string(buf) != "parent!!" {
		t.Fatalf("parent sees child write: %q", buf)
	}
	if s.Faults() != 1 || child.Faults() != 1 {
		t.Fatalf("faults = %d/%d, want 1/1", s.Faults(), child.Faults())
	}
}

func TestCloneReadOnlyPagesNeverFault(t *testing.T) {
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 2)
	s.Write(0, 0, []byte("text section"), nil)
	s.SetWritable(0, false)
	child, _, err := s.CloneOp(obs.OpCtx{}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if cow, _ := child.IsCOW(0); cow {
		t.Fatal("read-only page marked COW in child")
	}
	if cow, _ := s.IsCOW(0); cow {
		t.Fatal("read-only page marked COW in parent")
	}
}

func TestClonePrivateKinds(t *testing.T) {
	m := newTestMem(512)
	s := newTestSpace(t, m, 1, 8)
	s.SetKind(0, KindStartInfo)
	s.SetKind(1, KindConsole)
	s.SetKind(2, KindIORing)
	s.Write(0, 0, []byte("startinfo"), nil)
	s.Write(1, 0, []byte("conslog"), nil)
	s.Write(2, 0, []byte("ringdat"), nil)

	child, st, err := s.CloneOp(obs.OpCtx{}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.SharedPages != 5 {
		t.Fatalf("SharedPages = %d, want 5", st.SharedPages)
	}
	// start_info: copied, private frame.
	pm, _ := s.MFNOf(0)
	cm, _ := child.MFNOf(0)
	if pm == cm {
		t.Fatal("start_info frame shared with child")
	}
	buf := make([]byte, 9)
	child.Read(0, 0, buf)
	if string(buf) != "startinfo" {
		t.Fatalf("start_info not copied: %q", buf)
	}
	// console: fresh (child log starts empty, §4.2).
	buf = make([]byte, 7)
	child.Read(1, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatalf("console ring copied into child: %q", buf)
		}
	}
	// io ring with copyRing=true: copied.
	child.Read(2, 0, buf)
	if string(buf) != "ringdat" {
		t.Fatalf("io ring not copied: %q", buf)
	}
}

func TestCloneFreshRingPolicy(t *testing.T) {
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 4)
	s.SetKind(0, KindIORing)
	s.Write(0, 0, []byte("ring"), nil)
	child, st, err := s.CloneOp(obs.OpCtx{}, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.PrivateCopies != 0 {
		t.Fatalf("PrivateCopies = %d, want 0 with fresh-ring policy", st.PrivateCopies)
	}
	buf := make([]byte, 4)
	child.Read(0, 0, buf)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh ring carries parent content")
		}
	}
}

func TestCloneOfCloneAddsSharer(t *testing.T) {
	m := newTestMem(512)
	s := newTestSpace(t, m, 1, 2)
	c1, _, err := s.CloneOp(obs.OpCtx{}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	// Clone the clone: the shared frame gains one more reference.
	_, _, err = c1.CloneOp(obs.OpCtx{}, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	mfn, _ := s.MFNOf(0)
	if rc, _ := m.Refcount(mfn); rc != 3 {
		t.Fatalf("refcount after grandchild clone = %d, want 3", rc)
	}
}

func TestTouchCOW(t *testing.T) {
	m := newTestMem(256)
	s := newTestSpace(t, m, 1, 2)
	child, _, err := s.CloneOp(obs.OpCtx{}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	before, _ := child.MFNOf(0)
	if err := child.TouchCOW(obs.OpCtx{}, 0); err != nil {
		t.Fatal(err)
	}
	after, _ := child.MFNOf(0)
	if before == after {
		t.Fatal("TouchCOW did not break sharing")
	}
	if cow, _ := child.IsCOW(0); cow {
		t.Fatal("page still COW after TouchCOW")
	}
	// Idempotent on private pages.
	if err := child.TouchCOW(obs.OpCtx{}, 0); err != nil {
		t.Fatal(err)
	}
	if got, _ := child.MFNOf(0); got != after {
		t.Fatal("second TouchCOW changed the frame")
	}
}

func TestReleaseReturnsAllMemory(t *testing.T) {
	m := newTestMem(512)
	free0 := m.FreeFrames()
	s := newTestSpace(t, m, 1, 8)
	child, _, err := s.CloneOp(obs.OpCtx{}, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	child.Write(0, 0, []byte("dirty"), nil) // force one COW copy
	if err := child.Release(); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if got := m.FreeFrames(); got != free0 {
		t.Fatalf("leaked frames: free %d, want %d", got, free0)
	}
	if m.SharedFrames() != 0 {
		t.Fatalf("SharedFrames = %d after release, want 0", m.SharedFrames())
	}
	// Using a released space fails cleanly.
	if err := s.Write(0, 0, []byte("x"), nil); !errors.Is(err, ErrSpaceRetired) {
		t.Fatalf("write to retired space: %v, want ErrSpaceRetired", err)
	}
}

func TestCloneChargesPageTableWork(t *testing.T) {
	m := newTestMem(4096)
	s := newTestSpace(t, m, 1, 1024) // 4 MiB guest
	meter := vclock.NewMeter(nil)
	_, st, err := s.CloneOp(obs.Ctx(meter), 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.PTEntries != 1024 || st.P2MEntries != 1024 {
		t.Fatalf("entries = %d/%d, want 1024/1024", st.PTEntries, st.P2MEntries)
	}
	min := meter.Costs().PTEntryClone*1024 + meter.Costs().P2MEntryClone*1024
	if meter.Elapsed() < min {
		t.Fatalf("clone charged %v, want at least %v of mapping work", meter.Elapsed(), min)
	}
}

func TestPageKindString(t *testing.T) {
	kinds := []PageKind{KindRegular, KindPageTable, KindStartInfo, KindConsole, KindXenstore, KindIORing, KindP2M, PageKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty String() for kind %d", uint8(k))
		}
	}
}

func TestClonePartialFailureLeaksNothing(t *testing.T) {
	// A clone that runs out of machine memory mid-way must release every
	// frame the partial child accumulated (shared references included).
	m := newTestMem(56)
	s, err := NewSpace(obs.OpCtx{}, m, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	// Make many pages private so the clone needs copies it cannot get.
	for i := 0; i < 24; i++ {
		s.SetKind(PFN(i), KindIORing)
	}
	freeBefore := m.FreeFrames()
	sharedBefore := m.SharedFrames()
	if _, _, err := s.CloneOp(obs.OpCtx{}, 2, true); err == nil {
		t.Fatal("clone succeeded despite memory pressure")
	}
	if got := m.FreeFrames(); got != freeBefore {
		t.Fatalf("failed clone leaked %d frames", freeBefore-got)
	}
	if got := m.UsedBy(2); got != 0 {
		t.Fatalf("child still owns %d frames", got)
	}
	_ = sharedBefore
	// The parent remains fully functional.
	if err := s.Write(0, 0, []byte("still fine"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(30, 0, []byte("also fine"), nil); err != nil {
		t.Fatal(err)
	}
}
