package mem

import (
	"errors"
	"fmt"
)

// Audit checks the frame-level invariants of the pool (DESIGN.md §10, "Frame
// states and transitions", and §10.1) over every materialized frame. It
// returns nil, or an error naming each violated
// invariant with its first offender and how many times it was violated:
//
//   - page-aliasing: no unsealed page is held by two frames, and no page is
//     sealed in one frame and unsealed in another — the page pool relies on
//     an unsealed page having its frame as its only holder;
//   - page-slot: every frame names a slot of the table or none, no two
//     frames name one slot, and a page sits only in a slot a frame names (a
//     free frame's page is a free-frame violation);
//   - free-frame: a free frame holds no page, no refcount and no pledges;
//   - frame-state: an owned frame has one reference, and a dom_cow frame with
//     none is a zombie, which only its pledges keep alive;
//   - accounting: the free and shared counters, the recycle stack and the
//     per-domain usage equal what the frames say.
//
// Audit cannot see a leaked reference: a sharer reference or an owned frame
// nobody will give back is a consistent state. Tests catch those by
// destroying every domain and requiring FreeFrames() == TotalFrames().
//
// Audit is a read-only inspector for tests and test harnesses; it
// allocates, so no operation path calls it.
func (m *Memory) Audit() error {
	var log auditLog
	type holder struct {
		mfn    MFN
		sealed bool
	}
	pages := make(map[*[PageSize]byte]holder)
	namedBy := make([]MFN, m.pages.n+1) // slot -> 1 + the frame naming it
	inUse, shared := 0, 0
	used := make(map[DomID]int)
	var owners []DomID // the keys of used, in the order the walk met them
	for i := 0; i < m.watermark; i++ {
		mfn := MFN(i)
		f := m.frame(mfn)
		var page *[PageSize]byte // f's page, left nil where its slot is broken
		switch s := f.slot(); {
		case s > m.pages.n:
			log.add("page-slot", "frame %d names slot %d of %d", mfn, s, m.pages.n)
		case s != 0 && namedBy[s] != 0:
			log.add("page-slot", "frames %d and %d name slot %d", namedBy[s]-1, mfn, s)
		case s != 0:
			namedBy[s] = mfn + 1
			page = *m.pages.ref(s)
		}
		if !f.inUse() {
			if page != nil || f.sealed() || f.refcount != 0 || f.pledges != 0 {
				log.add("free-frame", "frame %d holds a page %t (sealed %t), refcount %d, pledges %d", mfn, page != nil, f.sealed(), f.refcount, f.pledges)
			}
			continue
		}
		inUse++
		if used[f.owner] == 0 {
			owners = append(owners, f.owner)
		}
		used[f.owner]++
		switch {
		case f.owner == DomIDCOW:
			shared++
			if f.refcount < 0 || f.refcount == 0 && f.pledges <= 0 {
				log.add("frame-state", "dom_cow frame %d has refcount %d, pledges %d", mfn, f.refcount, f.pledges)
			}
		case f.refcount != 1 || f.pledges < 0:
			log.add("frame-state", "frame %d owned by %d has refcount %d, pledges %d", mfn, f.owner, f.refcount, f.pledges)
		}
		if page == nil {
			continue
		}
		if h, dup := pages[page]; !dup {
			pages[page] = holder{mfn, f.sealed()}
		} else if !h.sealed || !f.sealed() {
			log.add("page-aliasing", "frames %d (sealed %t) and %d (sealed %t) hold one page", h.mfn, h.sealed, mfn, f.sealed())
		}
	}
	for s := uint32(1); s <= m.pages.n; s++ {
		if namedBy[s] == 0 && *m.pages.ref(s) != nil {
			log.add("page-slot", "slot %d holds a page no frame names", s)
		}
	}
	if want := m.total - inUse; m.free != want {
		log.add("accounting", "pool counts %d free frames, its frames say %d", m.free, want)
	}
	if m.shared != shared {
		log.add("accounting", "pool counts %d shared frames, its frames say %d", m.shared, shared)
	}
	if got, want := m.recycled.n, m.watermark-inUse; got != want {
		log.add("accounting", "pool stacks %d recycled frames, its frames say %d", got, want)
	}
	for j := 0; j < m.recycled.n; j++ {
		mfn := m.recycled.chunks[j>>mfnStackShift][j&(mfnStackChunk-1)]
		if int(mfn) >= m.watermark || m.frame(mfn).inUse() {
			log.add("accounting", "pool stacks frame %d, which it cannot hand out", mfn)
		}
	}
	for _, d := range owners {
		if got := m.usedByDom[d]; got != used[d] {
			log.add("accounting", "pool charges domain %d with %d frames, its frames say %d", d, got, used[d])
		}
	}
	if len(m.usedByDom) != len(owners) {
		log.add("accounting", "pool charges %d domains, its frames name %d", len(m.usedByDom), len(owners))
	}
	return log.err()
}

// auditLog collects Audit's findings: per violated invariant, in the order
// the walk first met it, the first offender and the number of violations.
type auditLog []auditFinding

type auditFinding struct {
	name, first string
	n           int
}

func (log *auditLog) add(name, format string, args ...any) {
	for i := range *log {
		if (*log)[i].name == name {
			(*log)[i].n++
			return
		}
	}
	*log = append(*log, auditFinding{name, fmt.Sprintf(format, args...), 1})
}

func (log auditLog) err() error {
	errs := make([]error, len(log))
	for i, v := range log {
		errs[i] = fmt.Errorf("mem audit: %s: %s (%d violations)", v.name, v.first, v.n)
	}
	return errors.Join(errs...)
}
