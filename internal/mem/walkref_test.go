package mem

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"nephele/internal/vclock"
)

// refPool is the per-frame reference the batched walks are checked against:
// a map of frames, every operation applied to one input entry at a time in
// input order, as the frame-state table of DESIGN.md §10 reads. A strict
// operation (share, pledge, adopt) that meets a bad entry puts back every
// frame it changed; an out-of-range entry anywhere in the input is the error
// reported over any per-frame one. The pool counters are read off the
// frames, not kept.
type refPool struct {
	total  int
	frames map[MFN]frameImage // every frame ever handed out, but for filler
	// filler is a range of frames a domain the operations never name holds
	// throughout: they stay in use and out of the comparison.
	filler [2]MFN
}

func newRefPool(total int) *refPool {
	return &refPool{total: total, frames: map[MFN]frameImage{}}
}

// alloc records frames the real pool handed to dom.
func (r *refPool) alloc(dom DomID, mfns []MFN) {
	for _, mfn := range mfns {
		r.frames[mfn] = frameImage{Owner: dom, Refcount: 1, InUse: true}
	}
}

// strict runs one entry of a strict operation at a time through step, which
// returns a per-frame error or nil; on the first error it restores every
// frame the earlier entries changed. It returns the error the operation
// must report.
func (r *refPool) strict(mfns []MFN, step func(mfn MFN, f *frameImage) error) error {
	saved := map[MFN]frameImage{}
	for i, mfn := range mfns {
		var err error
		f, ok := r.frames[mfn]
		switch {
		case mfn >= MFN(r.total):
			err = frameErr(ErrBadFrame, mfn)
		case !ok || !f.InUse:
			err = frameErr(ErrDoubleFree, mfn)
		default:
			if _, seen := saved[mfn]; !seen {
				saved[mfn] = f
			}
			if err = step(mfn, &f); err == nil {
				r.frames[mfn] = f
				continue
			}
		}
		for mfn, f := range saved {
			r.frames[mfn] = f
		}
		for _, later := range mfns[i:] {
			if later >= MFN(r.total) {
				return frameErr(ErrBadFrame, later)
			}
		}
		return err
	}
	return nil
}

// skipping runs one entry of a skip-and-record operation at a time through
// step, which reports whether the frame failed; the first out-of-range
// entry, else the first failed one, is the error.
func (r *refPool) skipping(mfns []MFN, kind error, step func(f *frameImage) bool) error {
	var bad, failed error
	for _, mfn := range mfns {
		f, ok := r.frames[mfn]
		switch {
		case mfn >= MFN(r.total):
			if bad == nil {
				bad = frameErr(ErrBadFrame, mfn)
			}
		case !ok || !step(&f):
			if failed == nil {
				failed = frameErr(kind, mfn)
			}
		default:
			r.frames[mfn] = f
		}
	}
	if bad != nil {
		return bad
	}
	return failed
}

// free is the state a frame goes back to when it is freed.
func (f *frameImage) free() { *f = frameImage{Owner: DomIDInvalid} }

// share is ShareN: it returns the number of frames transferred.
func (r *refPool) share(dom DomID, mfns []MFN, refs int) (int, error) {
	transfers := 0
	err := r.strict(mfns, func(mfn MFN, f *frameImage) error {
		switch f.Owner {
		case DomIDCOW:
			f.Refcount += int32(refs - 1)
		case dom:
			f.Owner, f.Refcount = DomIDCOW, int32(refs)
			transfers++
		default:
			return notOwnerErr(mfn, f.Owner, dom)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return transfers, nil
}

// release is ReleaseN (with absent entries already dropped by the caller).
func (r *refPool) release(dom DomID, mfns []MFN) error {
	return r.skipping(mfns, ErrDoubleFree, func(f *frameImage) bool {
		if !f.InUse {
			return false
		}
		switch f.Owner {
		case DomIDCOW:
			if f.Refcount == 0 {
				return false // a zombie: no reference left to drop
			}
			if f.Refcount--; f.Refcount == 0 && f.Pledges == 0 {
				f.free()
			}
		case dom:
			if f.Pledges > 0 {
				f.Owner, f.Refcount = DomIDCOW, 0
			} else {
				f.free()
			}
		}
		return true
	})
}

// pledge is pledgePTEs.
func (r *refPool) pledge(mfns []MFN) error {
	return r.strict(mfns, func(_ MFN, f *frameImage) error {
		f.Pledges++
		return nil
	})
}

// cancel is cancelPledged.
func (r *refPool) cancel(mfns []MFN) error {
	return r.skipping(mfns, ErrNotPledged, func(f *frameImage) bool {
		if !f.InUse || f.Pledges == 0 {
			return false
		}
		if f.Pledges--; f.Pledges == 0 && f.Owner == DomIDCOW && f.Refcount == 0 {
			f.free()
		}
		return true
	})
}

// adopt is adoptPledged: it returns the number of frames converted to
// dom_cow.
func (r *refPool) adopt(mfns []MFN) (int, error) {
	converted := 0
	err := r.strict(mfns, func(mfn MFN, f *frameImage) error {
		if f.Pledges == 0 {
			return frameErr(ErrNotPledged, mfn)
		}
		if f.Owner != DomIDCOW {
			f.Owner = DomIDCOW
			converted++
		}
		f.Refcount++
		f.Pledges--
		return nil
	})
	if err != nil {
		return 0, err
	}
	return converted, nil
}

// check compares the real pool with the reference frame by frame and
// counter by counter, and requires a clean Audit.
func (r *refPool) check(m *Memory, doms ...DomID) error {
	free, used := r.total-int(r.filler[1]-r.filler[0]), map[DomID]int{DomIDCOW: 0}
	for _, d := range doms {
		used[d] = 0
	}
	for _, f := range r.frames {
		if f.InUse {
			free--
			used[f.Owner]++
		}
	}
	if err := r.checkFrames(m); err != nil {
		return err
	}
	if got, shared := m.FreeFrames(), m.SharedFrames(); got != free || shared != used[DomIDCOW] {
		return fmt.Errorf("free %d shared %d, reference %d and %d", got, shared, free, used[DomIDCOW])
	}
	for d, want := range used {
		if got := m.UsedBy(d); got != want {
			return fmt.Errorf("UsedBy(%d) = %d, reference %d", d, got, want)
		}
	}
	return m.Audit()
}

// checkFrames compares every frame of the table with the reference; a free
// frame's owner is whatever it was left with, so only in-use owners count.
func (r *refPool) checkFrames(m *Memory) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for ci, ch := range m.chunks {
		for j := range ch {
			f, mfn := &ch[j], MFN(ci)<<frameChunkShift+MFN(j)
			if mfn >= r.filler[0] && mfn < r.filler[1] {
				continue
			}
			got := frameImage{f.owner, f.refcount, f.pledges, f.inUse()}
			want := r.frames[mfn]
			if !want.InUse {
				got.Owner, want.Owner = 0, 0
			}
			if got != want {
				return fmt.Errorf("frame %d is %+v, reference %+v", mfn, got, want)
			}
		}
	}
	for mfn := range r.frames {
		if inUseFrame(m.chunks, mfn) == nil && r.frames[mfn].InUse {
			return fmt.Errorf("frame %d is in use in the reference only", mfn)
		}
	}
	return nil
}

// sameErr reports whether a walk's error is the reference's: the same
// sentinel and the same message, so the same entry is named.
func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == want
	}
	return errors.Is(got, errors.Unwrap(want)) && got.Error() == want.Error()
}

// batchOp is one batched operation, run on the real pool and on the
// reference over the same input. real returns the number of frames the call
// moved to dom_cow, or -1 where the operation does not say; ref always
// returns it, and the meter must hold one PageShare per frame.
type batchOp struct {
	name string
	pte  bool // the input is page-table entries, which hold 52-bit MFNs
	real func(m *Memory, dom DomID, mfns []MFN, ptes []pte, refs int, meter *vclock.Meter) (int, error)
	ref  func(r *refPool, dom DomID, mfns []MFN, refs int) (int, error)
}

func noCount(err error) (int, error) { return -1, err }

var batchOps = []batchOp{
	{"ShareN", false, func(m *Memory, dom DomID, mfns []MFN, _ []pte, refs int, meter *vclock.Meter) (int, error) {
		return noCount(m.ShareN(dom, mfns, refs, meter))
	}, (*refPool).share},
	{"sharePTEs", true, func(m *Memory, dom DomID, _ []MFN, ptes []pte, refs int, meter *vclock.Meter) (int, error) {
		return m.sharePTEs(dom, ptes, refs, meter)
	}, (*refPool).share},
	{"ReleaseN", false, func(m *Memory, dom DomID, mfns []MFN, _ []pte, _ int, _ *vclock.Meter) (int, error) {
		return 0, m.ReleaseN(dom, mfns)
	}, func(r *refPool, dom DomID, mfns []MFN, _ int) (int, error) { return 0, r.release(dom, mfns) }},
	{"releasePTEs", true, func(m *Memory, dom DomID, _ []MFN, ptes []pte, _ int, _ *vclock.Meter) (int, error) {
		return 0, m.releasePTEs(dom, ptes)
	}, func(r *refPool, dom DomID, mfns []MFN, _ int) (int, error) { return 0, r.release(dom, mfns) }},
	{"pledgePTEs", true, func(m *Memory, _ DomID, _ []MFN, ptes []pte, _ int, _ *vclock.Meter) (int, error) {
		return 0, m.pledgePTEs(ptes)
	}, func(r *refPool, _ DomID, mfns []MFN, _ int) (int, error) { return 0, r.pledge(mfns) }},
	{"cancelPledged", true, func(m *Memory, _ DomID, _ []MFN, ptes []pte, _ int, _ *vclock.Meter) (int, error) {
		return 0, m.cancelPledged(ptes)
	}, func(r *refPool, _ DomID, mfns []MFN, _ int) (int, error) { return 0, r.cancel(mfns) }},
	{"adoptPledged", true, func(m *Memory, dom DomID, _ []MFN, ptes []pte, _ int, meter *vclock.Meter) (int, error) {
		return noCount(m.adoptPledged(dom, ptes, meter))
	}, func(r *refPool, _ DomID, mfns []MFN, _ int) (int, error) { return r.adopt(mfns) }},
}

func batchOpNamed(name string) batchOp {
	for _, op := range batchOps {
		if op.name == name {
			return op
		}
	}
	panic("no batched operation " + name)
}

// runBatchOp applies op to the real pool and to the reference and compares
// the error, the count of frames moved to dom_cow and the virtual time
// charged. absent marks the input entries whose page-table form is not
// present; only releasePTEs skips those, so only its reference input drops
// them. The reference reads a page-table input's frame numbers off the
// entries, which keep an MFN's low 52 bits.
func runBatchOp(m *Memory, r *refPool, op batchOp, dom DomID, mfns []MFN, absent []bool, refs int) error {
	ptes := ptesOf(mfns)
	var refIn []MFN
	for i, mfn := range mfns {
		if absent[i] {
			ptes[i] &^= ptePresent
			if op.name == "releasePTEs" {
				continue
			}
		}
		if op.pte {
			mfn = ptes[i].mfn()
		}
		refIn = append(refIn, mfn)
	}
	meter := vclock.NewMeter(nil)
	got, err := op.real(m, dom, mfns, ptes, refs, meter)
	want, werr := op.ref(r, dom, refIn, refs)
	if !sameErr(err, werr) {
		return fmt.Errorf("%s(dom %d, refs %d, %v): err = %v, reference %v", op.name, dom, refs, mfns, err, werr)
	}
	if got >= 0 && got != want {
		return fmt.Errorf("%s(%v): %d frames moved to dom_cow, reference %d", op.name, mfns, got, want)
	}
	if charged := meter.Costs().PageShare * time.Duration(want); meter.Elapsed() != charged {
		return fmt.Errorf("%s(%v): charged %v, reference %v", op.name, mfns, meter.Elapsed(), charged)
	}
	return nil
}

// FuzzBatchedOps decodes bytes into a sequence of batched operations over
// arbitrary frame lists — any order, repeats, out-of-range frames, frames
// above the watermark, frames other domains own, absent page-table entries
// — on a pool whose table spans a chunk edge, and checks every step against
// the per-frame reference: the error, every frame's owner, refcount, pledges
// and in-use bit, the free, shared and per-domain counters, and a clean
// Audit.
//
//	go test -run XXX -fuzz FuzzBatchedOps -fuzztime 10s ./internal/mem
func FuzzBatchedOps(f *testing.F) {
	f.Add([]byte{0, 2, 1, 4, 1, 0, 1, 1, 1, 2, 6, 1, 0, 3, 1, 3, 1, 4, 1, 5})
	f.Add([]byte{4, 1, 0, 6, 1, 5, 1, 6, 1, 7, 1, 8, 6, 2, 1, 6, 1, 5, 1, 6, 3, 7})
	f.Add([]byte{1, 3, 2, 5, 1, 1, 1, 1, 3, 250, 2, 9, 0, 2, 1, 1, 2, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBatchedOps(t, data)
	})
}

// TestReleaseOfZombieRefused is the FuzzBatchedOps input that found a
// release dropping a dom_cow zombie to refcount -1: dom 1 pledges its frame
// 0, then releases it twice in one call. The first entry leaves a zombie,
// which holds pledges but no reference; the second would drop a reference
// nobody holds, so it is refused like a free frame and the zombie stays as
// it was. The run carries on past it: a cancel frees the zombie, a release
// then finds the frame free, and the frame is handed out again.
func TestReleaseOfZombieRefused(t *testing.T) {
	checkBatchedOps(t, []byte{
		4, 0, 1, 0, 0, // pledgePTEs([0])
		2, 0, 2, 0, 0, 0, 0, // ReleaseN(dom 1, [0, 0])
		5, 0, 1, 0, 0, // cancelPledged([0])
		2, 0, 1, 0, 0, // ReleaseN(dom 1, [0])
		7, 0, 1, // AllocN(dom 1, 1)
	})

	m := New(4 * PageSize)
	mfns, err := m.AllocN(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	z := mfns[0]
	if err := m.pledgePTEs(ptesOf(mfns)); err != nil {
		t.Fatal(err)
	}
	err = m.ReleaseN(1, []MFN{z, z})
	if !errors.Is(err, ErrDoubleFree) || err.Error() != frameErr(ErrDoubleFree, z).Error() {
		t.Fatalf("releasing a pledged frame twice: err = %v, want ErrDoubleFree naming %d", err, z)
	}
	if got, want := imageOf(m, 1).Frames[z], (frameImage{Owner: DomIDCOW, Pledges: 1, InUse: true}); got != want {
		t.Fatalf("frame %d is %+v after the refused release, want the zombie %+v", z, got, want)
	}
	audit(t, m)
}

// The fuzz pool: dom 1 owns the first frames and the ones on both sides of
// the first chunk edge, a filler domain the frames between, dom 2 a few
// above the edge, and the pool's last frames lie above the watermark.
const (
	fuzzLow     = 16                     // dom 1's frames from MFN 0
	fuzzEdge    = 1<<frameChunkShift - 8 // dom 1's frames from here, over the edge
	fuzzOwned   = 1<<frameChunkShift + 8 // where dom 2's start
	fuzzForeign = 8                      // how many dom 2 owns
	fuzzTotal   = fuzzOwned + fuzzForeign + 24
)

// fuzzMFN decodes a frame number from two bytes: the first picks a region
// (the pool's start, the chunk edge, dom 2's frames and the watermark, the
// pool's end and past it), the second a frame near it.
func fuzzMFN(region, off byte) MFN {
	switch region % 4 {
	case 0:
		return MFN(off % fuzzLow)
	case 1:
		return MFN(fuzzEdge + int(off%16))
	case 2:
		return MFN(fuzzOwned + int(off%24))
	}
	if off == 255 {
		return MFN(1) << 60
	}
	return MFN(fuzzTotal - 4 + int(off%8))
}

func checkBatchedOps(t testing.TB, data []byte) {
	m := New(fuzzTotal * PageSize)
	r := newRefPool(fuzzTotal)
	r.filler = [2]MFN{fuzzLow, fuzzEdge}
	for _, a := range []struct {
		dom DomID
		n   int
	}{{1, fuzzLow}, {9, fuzzEdge - fuzzLow}, {1, fuzzOwned - fuzzEdge}, {2, fuzzForeign}} {
		mfns, err := m.AllocN(a.dom, a.n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.dom != 9 {
			r.alloc(a.dom, mfns)
		}
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for step := 0; len(data) > 0 && step < 64; step++ {
		code, arg := next(), next()
		dom, refs := DomID(1+arg%3), 1+int(arg/3%3)
		n := int(next() % 12)
		mfns, absent := make([]MFN, n), make([]bool, n)
		for i := range mfns {
			region := next()
			mfns[i], absent[i] = fuzzMFN(region, next()), region&0x80 != 0
		}
		if int(code)%(len(batchOps)+1) == len(batchOps) {
			// Hand out a few more frames, recycled ones first.
			got, err := m.AllocN(dom, n, nil)
			if err != nil {
				if !errors.Is(err, ErrOutOfMemory) {
					t.Fatal(err)
				}
				continue
			}
			r.alloc(dom, got)
		} else if err := runBatchOp(m, r, batchOps[int(code)%(len(batchOps)+1)], dom, mfns, absent, refs); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := r.check(m, 1, 2, 3); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}
