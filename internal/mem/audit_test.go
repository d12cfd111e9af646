package mem

import (
	"strings"
	"testing"

	"nephele/internal/obs"
)

// TestAuditNamesEachViolation breaks one invariant at a time on a pool with
// owned, shared, sealed and freed frames in it, and Audit must name exactly
// that invariant. The unbroken pool audits clean.
func TestAuditNamesEachViolation(t *testing.T) {
	// build returns a pool holding a parent whose pages 0-3 are written,
	// a clone sharing them, a snapshot sealing them, and a freed frame.
	build := func(t *testing.T) (*Memory, *Space) {
		m := newTestMem(256)
		parent := newTestSpace(t, m, 1, 8)
		for pfn := PFN(0); pfn < 4; pfn++ {
			if err := parent.Write(pfn, 0, []byte{byte(1 + pfn)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := parent.CloneOp(obs.OpCtx{}, 2, false); err != nil {
			t.Fatal(err)
		}
		if _, err := parent.Snapshot(); err != nil {
			t.Fatal(err)
		}
		if err := m.ReleaseN(3, []MFN{alloc1(t, m, 3)}); err != nil {
			t.Fatal(err)
		}
		return m, parent
	}
	frameOf := func(m *Memory, s *Space, pfn PFN) *frame { return m.frame(s.ptes[pfn].mfn()) }
	owned := func(m *Memory, s *Space) *frame { return m.frame(s.ptFrames[0]) }
	freed := func(m *Memory) *frame { return m.frame(m.recycled.chunks[0][0]) }

	for _, c := range []struct {
		name, want string
		breakIt    func(m *Memory, s *Space)
	}{
		{"unsealed page in two frames", "page-aliasing", func(m *Memory, s *Space) {
			page := new([PageSize]byte)
			m.setPage(owned(m, s), page, false)
			m.setPage(m.frame(s.ptFrames[1]), page, false)
		}},
		{"page sealed in one frame only", "page-aliasing", func(m *Memory, s *Space) {
			m.setPage(frameOf(m, s, 1), m.pageOf(frameOf(m, s, 0)), false)
		}},
		{"two frames naming one slot", "page-slot", func(m *Memory, s *Space) {
			f := owned(m, s)
			f.word = f.word&^frameSlotMask | frameOf(m, s, 0).slot()
		}},
		{"frame naming a slot past the table", "page-slot", func(m *Memory, s *Space) {
			f := owned(m, s)
			f.word = f.word&^frameSlotMask | (m.pages.n + 1)
		}},
		{"page in a slot no frame names", "page-slot", func(m *Memory, s *Space) {
			var stray frame
			m.setPage(&stray, new([PageSize]byte), false)
		}},
		{"free frame holding a page", "free-frame", func(m *Memory, s *Space) {
			m.setPage(freed(m), new([PageSize]byte), false)
		}},
		{"free frame still sealed", "free-frame", func(m *Memory, s *Space) {
			freed(m).seal()
		}},
		{"free frame holding a pledge", "free-frame", func(m *Memory, s *Space) {
			freed(m).pledges = 1
		}},
		{"zombie without pledges", "frame-state", func(m *Memory, s *Space) {
			frameOf(m, s, 0).refcount = 0
		}},
		{"owned frame with two references", "frame-state", func(m *Memory, s *Space) {
			owned(m, s).refcount = 2
		}},
		{"free counter", "accounting", func(m *Memory, s *Space) {
			m.free++
		}},
		{"shared counter", "accounting", func(m *Memory, s *Space) {
			m.shared--
		}},
		{"recycle stack", "accounting", func(m *Memory, s *Space) {
			m.recycled.push(s.ptFrames[0])
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, s := build(t)
			if err := m.Audit(); err != nil {
				t.Fatalf("before breaking it: %v", err)
			}
			c.breakIt(m, s)
			err := m.Audit()
			if err == nil || !strings.Contains(err.Error(), c.want+":") {
				t.Fatalf("Audit = %v, want a %s violation", err, c.want)
			}
			for _, other := range []string{"page-aliasing", "page-slot", "free-frame", "frame-state", "accounting"} {
				if other != c.want && strings.Contains(err.Error(), other+":") {
					t.Fatalf("Audit also names %s: %v", other, err)
				}
			}
		})
	}
}
