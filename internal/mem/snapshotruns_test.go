package mem

import (
	"fmt"
	"math/rand"
	"testing"

	"nephele/internal/obs"
)

// referenceSnapshotRuns is SnapshotRuns as first written, kept as the
// differential oracle: the pfn → mfn list of the whole space, every frame's
// page, then a map over every pfn's frame.
func referenceSnapshotRuns(s *Space) ([]SnapshotRun, error) {
	mfns, err := s.snapshotMFNs()
	if err != nil {
		return nil, err
	}
	pages, err := s.mem.SnapshotFrames(mfns)
	if err != nil {
		return nil, err
	}
	firstAt := make(map[MFN]PFN, len(mfns))
	var runs []SnapshotRun
	for lo := 0; lo < len(mfns); {
		if seen, dup := firstAt[mfns[lo]]; dup {
			hi := lo + 1
			for hi < len(mfns) {
				prev, dup := firstAt[mfns[hi]]
				if !dup || prev != seen+PFN(hi-lo) {
					break
				}
				hi++
			}
			runs = append(runs, SnapshotRun{Start: PFN(lo), Count: hi - lo, Alias: seen, IsAlias: true})
			lo = hi
			continue
		}
		zero := pages[lo] == nil
		hi := lo
		for hi < len(mfns) && (pages[hi] == nil) == zero {
			if _, dup := firstAt[mfns[hi]]; dup {
				break
			}
			firstAt[mfns[hi]] = PFN(hi)
			hi++
		}
		run := SnapshotRun{Start: PFN(lo), Count: hi - lo}
		if !zero {
			run.Pages = pages[lo:hi]
		}
		runs = append(runs, run)
		lo = hi
	}
	return runs, nil
}

// diffRuns describes the first difference between two captures, "" when
// they agree on every run's geometry and kind and on every page slot's
// backing array.
func diffRuns(got, want []SnapshotRun) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		g, w := got[i], want[i]
		if g.Start != w.Start || g.Count != w.Count || g.IsAlias != w.IsAlias || g.Alias != w.Alias ||
			(g.Pages == nil) != (w.Pages == nil) || len(g.Pages) != len(w.Pages) {
			return fmt.Sprintf("run %d: got {start %d count %d alias %t@%d data %t}, want {start %d count %d alias %t@%d data %t}",
				i, g.Start, g.Count, g.IsAlias, g.Alias, g.Pages != nil, w.Start, w.Count, w.IsAlias, w.Alias, w.Pages != nil)
		}
		for j := range w.Pages {
			if (g.Pages[j] == nil) != (w.Pages[j] == nil) || g.Pages[j] != nil && !samePage(g.Pages[j], w.Pages[j]) {
				return fmt.Sprintf("run %d (pfn %d): slot %d is not the reference's page", i, w.Start, j)
			}
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d runs, want %d", len(got), len(want))
	}
	return ""
}

// checkSnapshotRuns fails tb unless SnapshotRuns of s matches the reference,
// and unless every frame backing two pfns of s is owned by dom_cow — the
// invariant that lets SnapshotRuns index dom_cow frames only.
func checkSnapshotRuns(tb testing.TB, s *Space) []SnapshotRun {
	tb.Helper()
	want, werr := referenceSnapshotRuns(s)
	got, gerr := s.SnapshotRuns()
	if (werr == nil) != (gerr == nil) {
		tb.Fatalf("space %d: SnapshotRuns err %v, reference err %v", s.dom, gerr, werr)
	}
	if d := diffRuns(got, want); d != "" {
		tb.Fatalf("space %d: %s", s.dom, d)
	}
	firstAt := make(map[MFN]int, len(s.ptes))
	for i, p := range s.ptes {
		first, dup := firstAt[p.mfn()]
		if !dup {
			firstAt[p.mfn()] = i
			continue
		}
		if owner := s.mem.frame(p.mfn()).owner; owner != DomIDCOW {
			tb.Fatalf("space %d: frame %d backs pfns %d and %d but is owned by %d, not dom_cow",
				s.dom, p.mfn(), first, i, owner)
		}
	}
	return got
}

// runsRig drives the layouts a capture has to handle: guest writes,
// cache chunks adopted at several pfns, eager and lazy clones.
type runsRig struct {
	tb     testing.TB
	m      *Memory
	spaces []*Space
	chunks [][]MFN // cache runs, transferred to dom_cow
}

func newRunsRig(tb testing.TB, frames, pages int) *runsRig {
	tb.Helper()
	r := &runsRig{tb: tb, m: newTestMem(frames)}
	sp, err := NewSpace(obs.OpCtx{}, r.m, 1, pages)
	if err != nil {
		tb.Fatal(err)
	}
	r.spaces = append(r.spaces, sp)
	tb.Cleanup(r.release)
	return r
}

// write stores into pfn of sp: a whole page of b, a whole zero page, or
// eight bytes of b, by how. Errors (a read-only or retired target) are the
// layout's, not the capture's, and are ignored.
func (r *runsRig) write(sp *Space, pfn int, how int, b byte) {
	pfn %= sp.Pages()
	switch how % 3 {
	case 0:
		sp.Write(PFN(pfn), 0, fullPage(b|1), nil)
	case 1:
		sp.Write(PFN(pfn), 0, make([]byte, PageSize), nil)
	default:
		sp.Write(PFN(pfn), 8*(int(b)%64), []byte{b | 1, 2, 3, 4, 5, 6, 7, 8}, nil)
	}
}

// chunk makes an n-frame cache run, the frames whose bit is set in written
// holding a page, and transfers it to dom_cow under the cache's reference.
func (r *runsRig) chunk(n int, written uint8) []MFN {
	mfns, err := r.m.AllocN(obs.OpCtx{}, DomIDCache, n)
	if err != nil {
		r.tb.Fatal(err)
	}
	for i, mfn := range mfns {
		if written&(1<<(i%8)) != 0 {
			if err := r.m.Write(mfn, 0, []byte{byte(len(r.chunks)), byte(i), 1}); err != nil {
				r.tb.Fatal(err)
			}
		}
	}
	if err := r.m.ShareN(obs.OpCtx{}, DomIDCache, mfns, 1); err != nil {
		r.tb.Fatal(err)
	}
	r.chunks = append(r.chunks, mfns)
	return mfns
}

// adopt maps src at pfn of sp the way a cached restore does. A target that
// is not a private regular page refuses it and stays as it was.
func (r *runsRig) adopt(sp *Space, pfn int, src []MFN) {
	sp.AdoptShared(obs.OpCtx{}, DomIDCache, PFN(pfn%sp.Pages()), src)
}

// clone forks sp, eagerly or lazily, and returns the child (nil when the
// clone is refused, as it is for a lazy child still streaming).
func (r *runsRig) clone(sp *Space, mode CloneMode) *Space {
	child, _, err := sp.CloneOpMode(obs.OpCtx{}, DomID(2+len(r.spaces)), false, mode)
	if err != nil {
		return nil
	}
	r.spaces = append(r.spaces, child)
	return child
}

// check compares every live space with the reference and counts the alias
// runs they capture.
func (r *runsRig) check() (aliases int) {
	r.tb.Helper()
	for _, sp := range r.spaces {
		for _, run := range checkSnapshotRuns(r.tb, sp) {
			if run.IsAlias {
				aliases++
			}
		}
	}
	return aliases
}

// release lets go of every space, children first, and of the cache's
// references, then audits the pool: nothing may be left behind.
func (r *runsRig) release() {
	for i := len(r.spaces) - 1; i >= 0; i-- {
		if err := r.spaces[i].Release(); err != nil {
			r.tb.Errorf("release space %d: %v", r.spaces[i].dom, err)
		}
	}
	for _, mfns := range r.chunks {
		if err := r.m.ReleaseN(DomIDCache, mfns); err != nil {
			r.tb.Errorf("release cache run: %v", err)
		}
	}
	audit(r.tb, r.m)
	if free, total := r.m.FreeFrames(), r.m.TotalFrames(); free != total {
		r.tb.Errorf("%d of %d frames free after releasing everything", free, total)
	}
}

// TestSnapshotRunsMatchesReference compares SnapshotRuns run by run and slot
// by slot with the reference over seeded layouts: a table in fragmented MFN
// order, a half-written heap, written all-zero pages, one cache chunk
// adopted at several pfns (whole, in part and reversed), and COW-shared and
// lazily cloned families.
func TestSnapshotRunsMatchesReference(t *testing.T) {
	const pages = 512
	layouts := []struct {
		name    string
		aliases bool // the layout must capture alias runs
		build   func(r *runsRig, rng *rand.Rand)
	}{
		{"fragmented", false, func(r *runsRig, rng *rand.Rand) {
			fragmentSpace(r.tb, r.spaces[0], 90)
			for i := 0; i < pages/4; i++ {
				r.write(r.spaces[0], rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
			}
		}},
		{"half-written", false, func(r *runsRig, rng *rand.Rand) {
			for _, pfn := range rng.Perm(pages)[:pages/2] {
				r.write(r.spaces[0], pfn, 2*rng.Intn(2), byte(rng.Intn(256)))
			}
		}},
		{"zero-pages", false, func(r *runsRig, rng *rand.Rand) {
			for i := 0; i < pages/3; i++ {
				r.write(r.spaces[0], rng.Intn(pages), 1, 0)
			}
			for i := 0; i < pages/8; i++ {
				r.write(r.spaces[0], rng.Intn(pages), 0, byte(rng.Intn(256)))
			}
		}},
		{"adopted-aliases", true, func(r *runsRig, rng *rand.Rand) {
			sp := r.spaces[0]
			ch := r.chunk(12, uint8(rng.Intn(256)))
			reversed := make([]MFN, len(ch))
			for i, mfn := range ch {
				reversed[len(ch)-1-i] = mfn
			}
			for i, src := range [][]MFN{ch, ch, ch[3:9], reversed, ch[:1], ch} {
				r.adopt(sp, i*pages/6+rng.Intn(pages/6-len(ch)), src)
			}
			for i := 0; i < pages/8; i++ {
				r.write(sp, rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
			}
		}},
		{"cow-family", true, func(r *runsRig, rng *rand.Rand) {
			parent := r.spaces[0]
			ch := r.chunk(8, uint8(rng.Intn(256)))
			r.adopt(parent, rng.Intn(pages/2), ch)
			r.adopt(parent, pages/2+rng.Intn(pages/2-8), ch[2:])
			for i := 0; i < pages/4; i++ {
				r.write(parent, rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
			}
			child := r.clone(parent, CloneEager)
			for i := 0; i < pages/8; i++ {
				r.write(child, rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
				r.write(parent, rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
			}
			r.clone(child, CloneEager)
		}},
		{"lazy-family", true, func(r *runsRig, rng *rand.Rand) {
			parent := r.spaces[0]
			ch := r.chunk(8, uint8(rng.Intn(256)))
			r.adopt(parent, rng.Intn(pages/2), ch)
			r.adopt(parent, pages/2+rng.Intn(pages/2-8), ch)
			for i := 0; i < pages/4; i++ {
				r.write(parent, rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
			}
			child := r.clone(parent, CloneLazy)
			r.check()
			for i := 0; i < pages/8; i++ {
				r.write(child, rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
				r.write(parent, rng.Intn(pages), rng.Intn(3), byte(rng.Intn(256)))
			}
			r.check()
			if err := child.Drain(obs.OpCtx{}); err != nil {
				r.tb.Fatal(err)
			}
			r.clone(child, CloneLazy)
		}},
	}
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				r := newRunsRig(t, 8192, pages)
				l.build(r, rand.New(rand.NewSource(seed)))
				if aliases := r.check(); l.aliases && aliases == 0 {
					t.Fatalf("seed %d: no alias run captured", seed)
				}
			}
		})
	}
}

// FuzzSnapshotRuns decodes the input into layout operations, three bytes
// each, over a 64-page space and its clones, and checks every live space
// against the reference once they are applied.
func FuzzSnapshotRuns(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 4, 1, 3, 6, 0x5a, 4, 0, 10, 4, 0, 30, 5, 1, 0, 2, 12, 9})
	f.Add([]byte{3, 8, 0xff, 4, 0x80, 2, 4, 0, 40, 6, 1, 0, 0, 5, 50, 7, 0, 41, 1, 0, 2})
	f.Add([]byte{0, 1, 1, 0, 2, 2, 0, 3, 3, 1, 0, 4, 5, 0, 0, 8, 0, 0, 7, 0, 1, 2, 9, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const pages, maxSpaces = 64, 8
		r := newRunsRig(t, 4096, pages)
		cur := r.spaces[0]
		for i := 0; i+3 <= len(ops) && i < 3*64; i += 3 {
			op, a, b := ops[i], ops[i+1], ops[i+2]
			switch op % 9 {
			case 0, 1, 2:
				r.write(cur, int(b), int(op), a)
			case 3:
				if len(r.chunks) < 8 {
					r.chunk(1+int(a)%8, b)
				}
			case 4:
				// A whole chunk, a tail of it, or its frames reversed.
				if len(r.chunks) == 0 {
					continue
				}
				ch := r.chunks[int(a)%len(r.chunks)]
				src := ch[int(a>>3)%len(ch):]
				if a&0x80 != 0 {
					src = make([]MFN, len(ch))
					for j, mfn := range ch {
						src[len(ch)-1-j] = mfn
					}
				}
				r.adopt(cur, int(b), src)
			case 5, 6:
				if len(r.spaces) < maxSpaces {
					mode := CloneEager
					if op%9 == 6 {
						mode = CloneLazy
					}
					if child := r.clone(cur, mode); child != nil && a&1 != 0 {
						cur = child
					}
				}
			case 7:
				cur.TouchCOW(obs.OpCtx{}, PFN(int(b)%pages))
			case 8:
				cur = r.spaces[int(a)%len(r.spaces)]
			}
		}
		r.check()
	})
}
