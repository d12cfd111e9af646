package gnttab

import (
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"nephele/internal/mem"
)

// refTable is the capacity-sized reference the use-sized grant table must be
// indistinguishable from: size entries from the start, a ref bad only
// outside [0, size), the lowest inactive entry granted first.
type refTable []entry

func (t refTable) grant(grantee mem.DomID, frame mem.MFN) (Ref, error) {
	for i := range t {
		if !t[i].active {
			t[i] = entry{active: true, grantee: grantee, frame: frame}
			return Ref(i), nil
		}
	}
	return 0, ErrTableFull
}

// lookup mirrors the two ErrBadRef forms: "<ref>" out of range, "<ref>
// inactive" in range.
func (t refTable) lookup(ref Ref) (*entry, string) {
	if int(ref) < 0 || int(ref) >= len(t) {
		return nil, "bad"
	}
	if !t[ref].active {
		return nil, "inactive"
	}
	return &t[ref], ""
}

// TestGrantTableMatchesCapacitySizedReference drives seeded grant / end /
// map / unmap / clone sequences through the subsystem and the reference and
// compares every returned ref, error kind and message form, and the active
// entries of every domain after each step.
func TestGrantTableMatchesCapacitySizedReference(t *testing.T) {
	const size = 10
	full := 0 // grants refused with ErrTableFull: the limit must be exercised
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(size)
		refs := map[mem.DomID]refTable{}
		doms := []mem.DomID{1, 2}
		for _, d := range doms {
			s.AddDomain(d)
			refs[d] = make(refTable, size)
		}
		nextDom := mem.DomID(3)
		// badRef reports whether err is what a lookup of that form returns.
		badRef := func(err error, form string) bool {
			if form == "" {
				return !errors.Is(err, ErrBadRef)
			}
			return errors.Is(err, ErrBadRef) && strings.HasSuffix(err.Error(), " inactive") == (form == "inactive")
		}
		for step := 0; step < 300; step++ {
			d := doms[rng.Intn(len(doms))]
			ref := Ref(rng.Intn(size+3) - 1) // -1 .. size+1
			switch op := rng.Intn(6); op {
			case 0, 1:
				frame := mem.MFN(rng.Intn(1000))
				got, gerr := s.Grant(d, 7, frame, 0)
				want, werr := refs[d].grant(7, frame)
				if got != want || !errors.Is(gerr, werr) {
					t.Fatalf("seed %d step %d: Grant on %d = (%d, %v), reference (%d, %v)", seed, step, d, got, gerr, want, werr)
				}
				if werr != nil {
					full++
				}
			case 2:
				err := s.End(d, ref)
				e, form := refs[d].lookup(ref)
				if !badRef(err, form) {
					t.Fatalf("seed %d step %d: End(%d, %d) = %v, reference %q", seed, step, d, ref, err, form)
				}
				if e != nil && e.mapCount > 0 != errors.Is(err, ErrInUse) {
					t.Fatalf("seed %d step %d: End(%d, %d) = %v with %d mappings", seed, step, d, ref, err, e.mapCount)
				}
				if e != nil && e.mapCount == 0 {
					*e = entry{}
				}
			case 3:
				frame, _, err := s.Map(d, ref, 7, false)
				e, form := refs[d].lookup(ref)
				if !badRef(err, form) || (e != nil && (err != nil || frame != e.frame)) {
					t.Fatalf("seed %d step %d: Map(%d, %d) = (%d, %v), reference %q", seed, step, d, ref, frame, err, form)
				}
				if e != nil {
					e.mapCount++
				}
			case 4:
				err := s.Unmap(d, ref)
				e, form := refs[d].lookup(ref)
				if !badRef(err, form) || (e != nil && (e.mapCount == 0) != (err != nil)) {
					t.Fatalf("seed %d step %d: Unmap(%d, %d) = %v, reference %q", seed, step, d, ref, err, form)
				}
				if e != nil && e.mapCount > 0 {
					e.mapCount--
				}
			case 5:
				if len(doms) < 5 {
					child := nextDom
					nextDom++
					s.AddDomain(child)
					st, err := s.CloneDomain(d, child, nil, nil)
					refs[child] = make(refTable, size)
					n := 0
					for i, e := range refs[d] {
						if e.active {
							refs[child][i] = entry{active: true, grantee: e.grantee, frame: e.frame}
							n++
						}
					}
					if err != nil || st.Cloned != n {
						t.Fatalf("seed %d step %d: CloneDomain(%d) = %+v, %v; reference cloned %d", seed, step, d, st, err, n)
					}
					doms = append(doms, child)
				}
			}
			for _, d := range doms {
				got, err := s.Entries(d)
				if err != nil {
					t.Fatal(err)
				}
				var want []Entry
				for i, e := range refs[d] {
					if e.active {
						want = append(want, Entry{Ref: Ref(i), Grantee: e.grantee, Frame: e.frame})
					}
				}
				if len(got) != len(want) {
					t.Fatalf("seed %d step %d: dom %d has %d grants, reference %d", seed, step, d, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d step %d: dom %d grant %d = %+v, reference %+v", seed, step, d, i, got[i], want[i])
					}
				}
			}
		}
	}
	if full == 0 {
		t.Fatal("no sequence filled a table: ErrTableFull at the limit went unchecked")
	}
}

// TestCloneDomainKeepsHighRef: a parent whose only active grant is ref 400
// gives the child ref 400, and the child still grants from ref 0.
func TestCloneDomainKeepsHighRef(t *testing.T) {
	s := New(512)
	s.AddDomain(1)
	for i := 0; i <= 400; i++ {
		s.Grant(1, mem.DomIDChild, mem.MFN(i), FlagIDC)
	}
	for i := 0; i < 400; i++ {
		if err := s.End(1, Ref(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.AddDomain(2)
	st, err := s.CloneDomain(1, 2, nil, nil)
	if err != nil || st.Cloned != 1 {
		t.Fatalf("CloneDomain = %+v, %v", st, err)
	}
	if frame, _, err := s.Map(2, 400, 3, true); err != nil || frame != 400 {
		t.Fatalf("child ref 400 maps frame %d, %v", frame, err)
	}
	if ref, err := s.Grant(2, 3, 9, 0); err != nil || ref != 0 {
		t.Fatalf("child grants ref %d, %v", ref, err)
	}
}

// TestIdleDomainIsSmall: registering, cloning into and removing a guest
// that grants nothing costs a header, not a table sized to the limit (512
// entries were 16 KiB per domain).
func TestIdleDomainIsSmall(t *testing.T) {
	s := New(512)
	s.AddDomain(1)
	cycle := func() {
		s.AddDomain(2)
		if _, err := s.CloneDomain(1, 2, nil, nil); err != nil {
			t.Fatal(err)
		}
		s.RemoveDomain(2)
	}
	cycle() // the domain map reaches its size
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Fatalf("an idle domain's lifetime allocates %d bytes, want < 1 KiB", per)
	}
}
