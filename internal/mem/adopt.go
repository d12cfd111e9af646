package mem

import (
	"fmt"

	"nephele/internal/obs"
)

// AdoptShared is the populate-by-share path of a cached restore: the run of
// pfns starting at start stops being backed by this space's own private
// frames and instead COW-shares the src frames owned by srcDom (typically
// the snapshot cache's resident chunks, already transferred to dom_cow).
//
// Per source frame the dispatch is exactly ShareN's: a frame dom_cow
// already owns gains one reference at no virtual cost (the 2nd..Nth
// cached-restore fast path), a frame still owned by srcDom is transferred
// and charged one PageShare. The displaced private frames are freed, the
// new mappings are installed write-protected, and the page-table plus p2m
// rewrites are charged per entry — so populating a child from the cache
// costs PTE writes, not page copies.
//
// Every target entry must be a present, private (non-COW, non-lazy)
// KindRegular page; validation runs before any mutation, so a failed call
// leaves both the space and the pool untouched. The caller keeps ownership
// of the src slice.
func (s *Space) AdoptShared(ctx obs.OpCtx, srcDom DomID, start PFN, src []MFN) error {
	if len(src) == 0 {
		return nil
	}
	meter := ctx.Meter()
	_, span := ctx.StartSpan("adopt-shared")
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.retired {
		return ErrSpaceRetired
	}
	end := int(start) + len(src)
	if end > len(s.ptes) {
		return fmt.Errorf("%w: pfns %d..%d of %d", ErrBadPFN, start, end, len(s.ptes))
	}
	for i := int(start); i < end; i++ {
		p := s.ptes[i]
		if !p.present() {
			return fmt.Errorf("%w: pfn %d not present", ErrBadPFN, i)
		}
		if p.kind() != KindRegular || p.lazy() || p.cow() {
			return fmt.Errorf("mem: adopt pfn %d: not a private regular page (kind %s, lazy %t, cow %t)",
				i, p.kind(), p.lazy(), p.cow())
		}
	}
	// Take the space's references on the source frames first: if this
	// fails nothing has been installed and the space is untouched.
	if err := s.mem.ShareN(srcDom, src, 2, meter); err != nil {
		return err
	}
	old := make([]MFN, len(src))
	for i, mfn := range src {
		p := &s.ptes[int(start)+i]
		old[i] = p.mfn()
		*p = p.withMFN(mfn) | pteCOW | pteWritable
	}
	// The displaced frames were validated as this space's own private
	// memory, so releasing them frees them.
	err := s.mem.ReleaseN(s.dom, old)
	meter.Charge(meter.Costs().PTEntryClone, len(src))
	meter.Charge(meter.Costs().P2MEntryClone, len(src))
	return err
}
