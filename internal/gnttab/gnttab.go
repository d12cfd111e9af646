// Package gnttab simulates Xen grant tables, the memory-sharing primitive
// used by split drivers and by Nephele's inter-domain communication. Each
// domain owns a table of grant entries; granting a frame lets the grantee
// map it. Nephele extends the interface with the DOMID_CHILD wildcard
// (§5.1) so a parent can grant pages to clones that do not exist yet; at
// clone time each child receives permission to all the parent's IDC pages.
package gnttab

import (
	"errors"
	"fmt"

	"nephele/internal/mem"
	"nephele/internal/obs"
)

// Ref indexes a grant entry within one domain's table.
type Ref int

// Flags of one grant entry.
type Flags uint8

const (
	// FlagReadOnly restricts the grantee to reads.
	FlagReadOnly Flags = 1 << iota
	// FlagIDC marks the entry as part of the inter-domain-communication
	// region cloned to children.
	FlagIDC
)

// Errors.
var (
	ErrBadRef     = errors.New("gnttab: bad grant reference")
	ErrNotGranted = errors.New("gnttab: frame not granted to domain")
	ErrInUse      = errors.New("gnttab: grant entry still mapped")
	ErrNoSuchDom  = errors.New("gnttab: no such domain")
	ErrTableFull  = errors.New("gnttab: grant table full")
)

// entry is one grant.
type entry struct {
	active   bool
	grantee  mem.DomID // may be DomIDChild
	frame    mem.MFN
	flags    Flags
	mapCount int
}

// table is one domain's grant table. entries covers the refs used so far:
// it starts empty and is extended up to the subsystem's limit, the way
// Xen's gnttab_grow_table adds grant frames on demand. A ref in
// [len(entries), size) is an inactive entry that has no slot yet.
type table struct {
	entries []entry
}

// slot returns the entry of ref, extending the table to it; the caller has
// checked ref against the limit.
func (t *table) slot(ref int) *entry {
	if need := ref + 1 - len(t.entries); need > 0 {
		t.entries = append(t.entries, make([]entry, need)...)
	}
	return &t.entries[ref]
}

// Subsystem is the machine-wide grant table state.
type Subsystem struct {
	size    int
	domains map[mem.DomID]*table
}

// New creates the grant subsystem; size is the limit each domain's table
// may grow to, in entries.
func New(size int) *Subsystem {
	return &Subsystem{size: size, domains: make(map[mem.DomID]*table)}
}

// AddDomain registers a domain.
func (s *Subsystem) AddDomain(dom mem.DomID) {
	s.domains[dom] = &table{}
}

// RemoveDomain drops a domain's table.
func (s *Subsystem) RemoveDomain(dom mem.DomID) {
	delete(s.domains, dom)
}

func (s *Subsystem) tableOf(dom mem.DomID) (*table, error) {
	t := s.domains[dom]
	if t == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDom, dom)
	}
	return t, nil
}

// Grant creates a grant entry on dom allowing grantee to map frame.
// grantee may be mem.DomIDChild together with FlagIDC for pages shared
// with future clones.
func (s *Subsystem) Grant(dom mem.DomID, grantee mem.DomID, frame mem.MFN, flags Flags) (Ref, error) {
	t, err := s.tableOf(dom)
	if err != nil {
		return 0, err
	}
	// Lowest inactive ref first: a revoked slot of the table if there is
	// one, else the first ref past its end.
	i := 0
	for i < len(t.entries) && t.entries[i].active {
		i++
	}
	if i >= s.size {
		return 0, ErrTableFull
	}
	*t.slot(i) = entry{active: true, grantee: grantee, frame: frame, flags: flags}
	return Ref(i), nil
}

// End revokes a grant entry (GNTTABOP_end_access). Fails while mapped.
func (s *Subsystem) End(dom mem.DomID, ref Ref) error {
	t, err := s.tableOf(dom)
	if err != nil {
		return err
	}
	e, err := s.entryOf(t, ref)
	if err != nil {
		return err
	}
	if e.mapCount > 0 {
		return fmt.Errorf("%w: ref %d has %d mappings", ErrInUse, ref, e.mapCount)
	}
	*e = entry{}
	return nil
}

// entryOf returns the active entry of ref: a ref beyond the limit is
// bad, one below it that is revoked or has no slot yet is inactive.
func (s *Subsystem) entryOf(t *table, ref Ref) (*entry, error) {
	if int(ref) < 0 || int(ref) >= s.size {
		return nil, fmt.Errorf("%w: %d", ErrBadRef, ref)
	}
	if int(ref) >= len(t.entries) || !t.entries[ref].active {
		return nil, fmt.Errorf("%w: %d inactive", ErrBadRef, ref)
	}
	return &t.entries[ref], nil
}

// Map resolves (granter, ref) for mapper, returning the machine frame and
// whether the mapping is read-only. The mapper must match the grantee, or
// the grantee must be DOMID_CHILD and the mapper a family child — the
// caller (hypervisor) passes isFamilyChild after consulting the family
// tree, keeping this package independent of domain management.
func (s *Subsystem) Map(granter mem.DomID, ref Ref, mapper mem.DomID, isFamilyChild bool) (mem.MFN, bool, error) {
	t, err := s.tableOf(granter)
	if err != nil {
		return 0, false, err
	}
	e, err := s.entryOf(t, ref)
	if err != nil {
		return 0, false, err
	}
	allowed := e.grantee == mapper || (e.grantee == mem.DomIDChild && isFamilyChild)
	if !allowed {
		return 0, false, fmt.Errorf("%w: ref %d grants %d, mapped by %d", ErrNotGranted, ref, e.grantee, mapper)
	}
	e.mapCount++
	return e.frame, e.flags&FlagReadOnly != 0, nil
}

// Unmap releases one mapping of (granter, ref).
func (s *Subsystem) Unmap(granter mem.DomID, ref Ref) error {
	t, err := s.tableOf(granter)
	if err != nil {
		return err
	}
	e, err := s.entryOf(t, ref)
	if err != nil {
		return err
	}
	if e.mapCount == 0 {
		return fmt.Errorf("gnttab: ref %d not mapped", ref)
	}
	e.mapCount--
	return nil
}

// Entry describes a grant for inspection and cloning.
type Entry struct {
	Ref     Ref
	Grantee mem.DomID
	Frame   mem.MFN
	Flags   Flags
}

// Entries lists the active grants of a domain.
func (s *Subsystem) Entries(dom mem.DomID) ([]Entry, error) {
	t, err := s.tableOf(dom)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for i := range t.entries {
		e := &t.entries[i]
		if e.active {
			out = append(out, Entry{Ref: Ref(i), Grantee: e.grantee, Frame: e.frame, Flags: e.flags})
		}
	}
	return out, nil
}

// IDCEntries lists the parent's DOMID_CHILD grants — the IDC pages a new
// clone is implicitly granted (§5.2.2).
func (s *Subsystem) IDCEntries(dom mem.DomID) ([]Entry, error) {
	all, err := s.Entries(dom)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range all {
		if e.Grantee == mem.DomIDChild {
			out = append(out, e)
		}
	}
	return out, nil
}

// CloneStats reports grant table cloning work.
type CloneStats struct {
	Cloned int
}

// CloneDomain replicates parent's grant table into child, translating
// frames through xlate (old parent MFN -> child MFN; identity when the
// frame is family-shared). Entries granting to DOMID_CHILD stay wildcard
// grants in the child too, so a clone can itself become a parent.
func (s *Subsystem) CloneDomain(ctx obs.OpCtx, parent, child mem.DomID, xlate func(mem.MFN) mem.MFN) (CloneStats, error) {
	meter := ctx.Meter()
	var st CloneStats
	pt, err := s.tableOf(parent)
	if err != nil {
		return st, err
	}
	ct, err := s.tableOf(child)
	if err != nil {
		return st, err
	}
	// The child's table ends where the parent's last active grant does.
	n := len(pt.entries)
	for n > 0 && !pt.entries[n-1].active {
		n--
	}
	if n > 0 {
		ct.slot(n - 1)
	}
	for i := range pt.entries[:n] {
		pe := &pt.entries[i]
		if !pe.active {
			continue
		}
		frame := pe.frame
		if xlate != nil {
			frame = xlate(frame)
		}
		ct.entries[i] = entry{active: true, grantee: pe.grantee, frame: frame, flags: pe.flags}
		st.Cloned++
	}
	meter.Charge(meter.Costs().GrantEntryClone, st.Cloned)
	return st, nil
}

// ActiveCount reports the number of active grants of a domain.
func (s *Subsystem) ActiveCount(dom mem.DomID) int {
	entries, err := s.Entries(dom)
	if err != nil {
		return 0
	}
	return len(entries)
}
