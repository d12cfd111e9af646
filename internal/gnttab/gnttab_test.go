package gnttab

import (
	"errors"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func newSub(t *testing.T, doms ...mem.DomID) *Subsystem {
	t.Helper()
	s := New(32)
	for _, d := range doms {
		s.AddDomain(d)
	}
	return s
}

func TestGrantMapUnmapEnd(t *testing.T) {
	s := newSub(t, 1, 2)
	ref, err := s.Grant(1, 2, mem.MFN(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	frame, ro, err := s.Map(1, ref, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if frame != 7 || ro {
		t.Fatalf("Map = (%d, %v), want (7, false)", frame, ro)
	}
	// End while mapped must fail.
	if err := s.End(1, ref); !errors.Is(err, ErrInUse) {
		t.Fatalf("End while mapped: %v, want ErrInUse", err)
	}
	if err := s.Unmap(1, ref); err != nil {
		t.Fatal(err)
	}
	if err := s.End(1, ref); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Map(1, ref, 2, false); !errors.Is(err, ErrBadRef) {
		t.Fatalf("Map ended ref: %v, want ErrBadRef", err)
	}
}

func TestReadOnlyGrant(t *testing.T) {
	s := newSub(t, 1, 2)
	ref, _ := s.Grant(1, 2, 3, FlagReadOnly)
	_, ro, err := s.Map(1, ref, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !ro {
		t.Fatal("read-only grant mapped writable")
	}
}

func TestMapByWrongDomainFails(t *testing.T) {
	s := newSub(t, 1, 2, 3)
	ref, _ := s.Grant(1, 2, 3, 0)
	if _, _, err := s.Map(1, ref, 3, false); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("Map by non-grantee: %v, want ErrNotGranted", err)
	}
}

func TestDomIDChildWildcard(t *testing.T) {
	s := newSub(t, 1, 5)
	ref, err := s.Grant(1, mem.DomIDChild, 9, FlagIDC)
	if err != nil {
		t.Fatal(err)
	}
	// A family child may map; an unrelated domain may not.
	if _, _, err := s.Map(1, ref, 5, true); err != nil {
		t.Fatalf("family child map: %v", err)
	}
	if _, _, err := s.Map(1, ref, 5, false); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("non-family map: %v, want ErrNotGranted", err)
	}
}

func TestIDCEntries(t *testing.T) {
	s := newSub(t, 1)
	s.Grant(1, 2, 3, 0)
	s.Grant(1, mem.DomIDChild, 4, FlagIDC)
	s.Grant(1, mem.DomIDChild, 5, FlagIDC)
	idc, err := s.IDCEntries(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(idc) != 2 {
		t.Fatalf("IDCEntries = %d, want 2", len(idc))
	}
	for _, e := range idc {
		if e.Grantee != mem.DomIDChild {
			t.Fatalf("IDC entry grants %d", e.Grantee)
		}
	}
}

func TestCloneDomainTranslatesFrames(t *testing.T) {
	s := newSub(t, 1, 9)
	s.Grant(1, 0, 100, 0)                    // device grant to dom0
	s.Grant(1, mem.DomIDChild, 101, FlagIDC) // IDC page (shared, identity)
	meter := vclock.NewMeter(nil)
	st, err := s.CloneDomain(obs.Ctx(meter), 1, 9, func(m mem.MFN) mem.MFN {
		if m == 100 {
			return 200 // private frame was duplicated
		}
		return m
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Cloned != 2 {
		t.Fatalf("Cloned = %d, want 2", st.Cloned)
	}
	entries, _ := s.Entries(9)
	if len(entries) != 2 {
		t.Fatalf("child entries = %d, want 2", len(entries))
	}
	byFrame := map[mem.MFN]Entry{}
	for _, e := range entries {
		byFrame[e.Frame] = e
	}
	if _, ok := byFrame[200]; !ok {
		t.Fatal("private frame not translated in child grant")
	}
	if e, ok := byFrame[101]; !ok || e.Grantee != mem.DomIDChild {
		t.Fatal("IDC wildcard grant not preserved in child")
	}
	if meter.Elapsed() != 2*meter.Costs().GrantEntryClone {
		t.Fatalf("charged %v, want 2 GrantEntryClone", meter.Elapsed())
	}
}

func TestTableFull(t *testing.T) {
	s := New(2)
	s.AddDomain(1)
	s.Grant(1, 2, 1, 0)
	s.Grant(1, 2, 2, 0)
	if _, err := s.Grant(1, 2, 3, 0); !errors.Is(err, ErrTableFull) {
		t.Fatalf("grant beyond table: %v, want ErrTableFull", err)
	}
}

func TestUnknownDomain(t *testing.T) {
	s := newSub(t, 1)
	if _, err := s.Grant(42, 2, 1, 0); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("grant by unknown dom: %v", err)
	}
	if _, _, err := s.Map(42, 0, 2, false); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("map from unknown dom: %v", err)
	}
}

func TestUnmapNotMapped(t *testing.T) {
	s := newSub(t, 1)
	ref, _ := s.Grant(1, 2, 1, 0)
	if err := s.Unmap(1, ref); err == nil {
		t.Fatal("unmap of unmapped ref succeeded")
	}
}

func TestActiveCountAndRemove(t *testing.T) {
	s := newSub(t, 1)
	s.Grant(1, 2, 1, 0)
	s.Grant(1, 2, 2, 0)
	if got := s.ActiveCount(1); got != 2 {
		t.Fatalf("ActiveCount = %d, want 2", got)
	}
	s.RemoveDomain(1)
	if got := s.ActiveCount(1); got != 0 {
		t.Fatalf("ActiveCount after remove = %d, want 0", got)
	}
}

func TestGrantRefReuseAfterEnd(t *testing.T) {
	s := newSub(t, 1)
	ref1, _ := s.Grant(1, 2, 1, 0)
	s.End(1, ref1)
	ref2, _ := s.Grant(1, 2, 9, 0)
	if ref1 != ref2 {
		t.Fatalf("freed ref not reused: got %d, want %d", ref2, ref1)
	}
}
