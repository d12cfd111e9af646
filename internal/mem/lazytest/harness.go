// Package lazytest is the differential test harness proving that lazy
// cloning (demand-paged children, drained by their waiter) is
// observationally equivalent to eager cloning.
//
// Each scenario is derived from a seed: a randomized parent layout (page
// kinds, read-only text, seeded contents) and a randomized workload (child
// and parent reads, writes and COW touches). The harness builds the SAME
// parent twice in two independent memory pools, clones one eagerly and one
// lazily, applies the identical workload to both sides, drains the lazy
// child and then asserts equivalence:
//
//   - byte-identical child and parent snapshots,
//   - identical per-op results (data read, errors returned),
//   - consistent CloneStats (deferred + stamped = eagerly stamped),
//   - identical COW-fault counts,
//   - exact virtual-time parity: the total across every meter involved
//     (clone + stream + workload) equals the eager total, because every
//     deferred charge lands exactly once at materialization,
//   - one demand fault per distinct deferred page the workload touched
//     before the drain, so the split between the workload and stream
//     meters is fixed by the input,
//   - identical frame accounting, and full recovery of the free list
//     after teardown (no pledge or zombie leak),
//   - a clean mem.Memory.Audit of both pools after the stream and after
//     teardown.
//
// Every lazy bug class is expressible as a failing scenario: a lost extent
// leaves Remaining != 0 or a snapshot hole; a double-streamed extent
// double-charges the meter and breaks virtual-time parity (and corrupts
// the refcount, breaking the teardown check); a drain that drops or
// duplicates a materialization breaks the fault accounting; a
// rollback that forgets pledges leaks zombie frames and fails the
// free-list check.
package lazytest

import (
	"bytes"
	"fmt"
	"math/rand"

	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

const (
	parentDom mem.DomID = 1
	childDom  mem.DomID = 2
	secondDom mem.DomID = 3
)

// pageSpec describes one parent page: its kind, protection and seeded
// contents (a token written at a fixed offset; the rest of the page is
// zero).
type pageSpec struct {
	kind     mem.PageKind
	readOnly bool
	off      int
	token    []byte
}

type opKind int

const (
	opChildWrite opKind = iota
	opChildRead
	opChildTouch
	opParentWrite
	opParentRead
	numOpKinds
)

func (k opKind) String() string {
	switch k {
	case opChildWrite:
		return "child-write"
	case opChildRead:
		return "child-read"
	case opChildTouch:
		return "child-touch"
	case opParentWrite:
		return "parent-write"
	case opParentRead:
		return "parent-read"
	default:
		return fmt.Sprintf("opKind(%d)", int(k))
	}
}

// wop is one deterministic workload operation, applied identically to the
// eager and the lazy side.
type wop struct {
	kind opKind
	pfn  mem.PFN
	off  int
	data []byte
}

// Scenario is one seed-derived differential case.
type Scenario struct {
	Seed  int64
	Pages int
	// SecondClone additionally clones both parents eagerly after the
	// drain completes: the lazily cloned parent's frames went to dom_cow
	// by materialization, the eager one's at clone time, and the one
	// share walk must bump both alike.
	SecondClone bool

	specs []pageSpec
	ops   []wop
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// NewScenario derives a scenario from seed. The layout mixes writable and
// read-only regular pages with every private page kind the clone walk
// dispatches on, so lazy runs are interrupted by eager extents the way a
// real unikernel image interleaves text, heap and device pages.
func NewScenario(seed int64) *Scenario {
	r := rand.New(rand.NewSource(seed))
	pages := 16 + r.Intn(241)
	sc := &Scenario{Seed: seed, Pages: pages}
	for i := 0; i < pages; i++ {
		ps := pageSpec{kind: mem.KindRegular}
		switch roll := r.Intn(100); {
		case roll < 62: // writable regular memory (the lazy hot case)
		case roll < 74:
			ps.readOnly = true // text: shared without COW
		case roll < 80:
			ps.kind = mem.KindIDC
		case roll < 85:
			ps.kind = mem.KindConsole
		case roll < 90:
			ps.kind = mem.KindIORing
		case roll < 95:
			ps.kind = mem.KindStartInfo
		default:
			ps.kind = mem.KindP2M
		}
		ps.off = r.Intn(mem.PageSize - 64)
		ps.token = randBytes(r, 16+r.Intn(32))
		sc.specs = append(sc.specs, ps)
	}
	nops := r.Intn(3 * pages)
	for i := 0; i < nops; i++ {
		w := wop{
			kind: opKind(r.Intn(int(numOpKinds))),
			pfn:  mem.PFN(r.Intn(pages)),
			off:  r.Intn(mem.PageSize - 32),
		}
		if w.kind == opChildWrite || w.kind == opParentWrite {
			w.data = randBytes(r, 8+r.Intn(24))
		}
		sc.ops = append(sc.ops, w)
	}
	sc.SecondClone = r.Intn(2) == 0
	return sc
}

// frames sizes each side's memory pool: parent + child + second clone
// metadata, private kinds, and headroom for every COW copy the workload
// can force.
func (sc *Scenario) frames() int {
	meta := mem.PTFrameCount(sc.Pages) + mem.P2MFrameCount(sc.Pages)
	return sc.Pages*6 + 3*meta + 128
}

// side is one half of a differential run: its own pool, parent, child,
// one operation context per role, whose meters' sum participates in the
// parity check, and the fault registry installed on its pool (empty unless
// a test arms it).
type side struct {
	mode   mem.CloneMode
	m      *mem.Memory
	parent *mem.Space
	child  *mem.Space
	st     mem.CloneStats
	faults *fault.Registry
	build  obs.OpCtx
	clone  obs.OpCtx
	work   obs.OpCtx
	stream obs.OpCtx
}

// build constructs the parent from the layout and clones it in mode.
func (sc *Scenario) build(mode mem.CloneMode) (*side, error) {
	s := &side{
		mode:   mode,
		m:      mem.New(uint64(sc.frames()) * mem.PageSize),
		faults: fault.NewRegistry(),
		build:  obs.OpCtx{}.EnsureMeter(nil),
		clone:  obs.OpCtx{}.EnsureMeter(nil),
		work:   obs.OpCtx{}.EnsureMeter(nil),
		stream: obs.OpCtx{}.EnsureMeter(nil),
	}
	s.m.SetFaults(s.faults)
	var err error
	s.parent, err = mem.NewSpace(s.build, s.m, parentDom, sc.Pages)
	if err != nil {
		return nil, fmt.Errorf("NewSpace: %w", err)
	}
	for i, ps := range sc.specs {
		pfn := mem.PFN(i)
		if err := s.parent.WriteOp(s.build, pfn, ps.off, ps.token); err != nil {
			return nil, fmt.Errorf("seed pfn %d: %w", pfn, err)
		}
		if ps.kind != mem.KindRegular {
			if err := s.parent.SetKind(pfn, ps.kind); err != nil {
				return nil, err
			}
		}
		if ps.readOnly {
			if err := s.parent.SetWritable(pfn, false); err != nil {
				return nil, err
			}
		}
	}
	s.child, s.st, err = s.parent.CloneOpMode(s.clone, childDom, true, mode)
	if err != nil {
		return nil, fmt.Errorf("%v clone: %w", mode, err)
	}
	return s, nil
}

// apply runs one workload op on a side, returning the data a read produced
// (nil for non-reads) and the op's error.
func (s *side) apply(op wop) ([]byte, error) {
	switch op.kind {
	case opChildWrite:
		return nil, s.child.WriteOp(s.work, op.pfn, op.off, op.data)
	case opChildRead:
		// Meterless, as a guest's plain loads are: a demand fault here
		// charges the stream's private meter, which the drain takes over.
		buf := make([]byte, 16)
		err := s.child.Read(op.pfn, op.off, buf)
		return buf, err
	case opChildTouch:
		return nil, s.child.TouchCOW(s.work, op.pfn)
	case opParentWrite:
		return nil, s.parent.WriteOp(s.work, op.pfn, op.off, op.data)
	case opParentRead:
		buf := make([]byte, 16)
		err := s.parent.ReadOp(s.work, op.pfn, op.off, buf)
		return buf, err
	default:
		return nil, fmt.Errorf("unknown op %v", op.kind)
	}
}

// drain materializes the side's deferred pages on its stream meter.
func (s *side) drain() error {
	return s.child.Drain(s.stream)
}

// release tears the side down (child first, then parent) and verifies the
// pool's free list recovered completely — the no-leak postcondition that
// fails if a pledge or zombie reference survives teardown.
func (s *side) release(total int) error {
	if s.child != nil {
		if err := s.child.Release(); err != nil {
			return fmt.Errorf("%v child release: %w", s.mode, err)
		}
	}
	if err := s.parent.Release(); err != nil {
		return fmt.Errorf("%v parent release: %w", s.mode, err)
	}
	if got := s.m.FreeFrames(); got != total {
		return fmt.Errorf("%v teardown: %d frames free, want %d (leak)", s.mode, got, total)
	}
	if err := s.m.Audit(); err != nil {
		return fmt.Errorf("%v teardown: %w", s.mode, err)
	}
	return nil
}

func sameErr(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

func snapshotsEqual(what string, a, b *mem.Space) error {
	sa, err := a.Snapshot()
	if err != nil {
		return fmt.Errorf("%s eager snapshot: %w", what, err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		return fmt.Errorf("%s lazy snapshot: %w", what, err)
	}
	if len(sa) != len(sb) {
		return fmt.Errorf("%s snapshot length: eager %d, lazy %d", what, len(sa), len(sb))
	}
	for i := range sa {
		if !bytes.Equal(sa[i], sb[i]) {
			return fmt.Errorf("%s snapshot diverges at pfn %d", what, i)
		}
	}
	return nil
}

// lazySplit is what one lazy run charged to each of its meters.
type lazySplit struct {
	clone, work, stream vclock.Duration
}

// Run executes the scenario's full differential check with the first nops
// workload ops (pass len(sc.ops) for all) and returns the first violated
// invariant.
func (sc *Scenario) Run(nops int) error {
	_, err := sc.run(nops)
	return err
}

// run is Run, also returning the lazy side's per-meter split.
func (sc *Scenario) run(nops int) (lazySplit, error) {
	var split lazySplit
	eager, err := sc.build(mem.CloneEager)
	if err != nil {
		return split, err
	}
	lazy, err := sc.build(mem.CloneLazy)
	if err != nil {
		return split, err
	}

	// The two parents were built by identical operations: their virtual
	// time must agree exactly before any mode-dependent work happens.
	if eager.build.Meter().Elapsed() != lazy.build.Meter().Elapsed() {
		return split, fmt.Errorf("parent build time diverged: %d vs %d",
			eager.build.Meter().Elapsed(), lazy.build.Meter().Elapsed())
	}

	// Identical workloads; on the lazy side every first touch of a
	// deferred page demand-faults.
	if err := applyOps(eager, lazy, sc.ops[:nops]); err != nil {
		return split, err
	}
	if err := lazy.drain(); err != nil {
		return split, fmt.Errorf("Drain: %w", err)
	}
	if err := sc.check(eager, lazy, sc.ops[:nops]); err != nil {
		return split, err
	}
	split = lazySplit{lazy.clone.Meter().Elapsed(), lazy.work.Meter().Elapsed(), lazy.stream.Meter().Elapsed()}

	if sc.SecondClone {
		if err := sc.secondClone(eager, lazy); err != nil {
			return split, err
		}
	}

	total := sc.frames()
	if err := lazy.release(total); err != nil {
		return split, err
	}
	return split, eager.release(total)
}

// applyOps runs ops on both sides in order, failing on the first op whose
// error or read data differs between them.
func applyOps(eager, lazy *side, ops []wop) error {
	for i, op := range ops {
		ed, ee := eager.apply(op)
		ld, le := lazy.apply(op)
		if !sameErr(ee, le) {
			return fmt.Errorf("op %d %v pfn %d: eager err %v, lazy err %v", i, op.kind, op.pfn, ee, le)
		}
		if ee == nil && !bytes.Equal(ed, ld) {
			return fmt.Errorf("op %d %v pfn %d: read diverged: %x vs %x", i, op.kind, op.pfn, ed, ld)
		}
	}
	return nil
}

// demandTouched counts the distinct deferred pages (every regular page
// of the layout) that child accesses among ops touch: each is one demand
// fault, whatever the access did afterwards.
func (sc *Scenario) demandTouched(ops []wop) int {
	seen := make(map[mem.PFN]bool)
	for _, op := range ops {
		child := op.kind == opChildWrite || op.kind == opChildRead || op.kind == opChildTouch
		if child && sc.specs[op.pfn].kind == mem.KindRegular {
			seen[op.pfn] = true
		}
	}
	return len(seen)
}

// check asserts every post-drain equivalence invariant, ops being the
// workload that ran before the drain.
func (sc *Scenario) check(eager, lazy *side, ops []wop) error {
	// Clone-stats relations: what lazy deferred plus what it stamped is
	// exactly what eager stamped.
	est, lst := eager.st, lazy.st
	if lst.PTEntries+lst.Deferred != est.PTEntries {
		return fmt.Errorf("PTEntries: lazy %d + deferred %d != eager %d", lst.PTEntries, lst.Deferred, est.PTEntries)
	}
	if lst.P2MEntries+lst.Deferred != est.P2MEntries {
		return fmt.Errorf("P2MEntries: lazy %d + deferred %d != eager %d", lst.P2MEntries, lst.Deferred, est.P2MEntries)
	}
	if lst.SharedPages+lst.Deferred != est.SharedPages {
		return fmt.Errorf("SharedPages: lazy %d + deferred %d != eager %d", lst.SharedPages, lst.Deferred, est.SharedPages)
	}
	if est.Deferred != 0 {
		return fmt.Errorf("eager clone reported %d deferred pages", est.Deferred)
	}
	if lst.PrivateCopies != est.PrivateCopies || lst.PrivateFresh != est.PrivateFresh ||
		lst.MetaFrames != est.MetaFrames || lst.Extents != est.Extents {
		return fmt.Errorf("private/meta stats diverged: eager %+v, lazy %+v", est, lst)
	}

	// Stream accounting: nothing lost, nothing double-counted.
	ss := lazy.child.StreamStats()
	if ss.Remaining != 0 {
		return fmt.Errorf("stream finished with %d pages remaining", ss.Remaining)
	}
	if ss.StreamedPages+ss.DemandPages != lst.Deferred {
		return fmt.Errorf("streamed %d + demand %d != deferred %d", ss.StreamedPages, ss.DemandPages, lst.Deferred)
	}
	if want := sc.demandTouched(ops); ss.DemandPages != want {
		return fmt.Errorf("DemandPages %d, want %d distinct deferred pages touched", ss.DemandPages, want)
	}
	if got := lazy.child.UnmappedFaults(); got != ss.DemandPages {
		return fmt.Errorf("UnmappedFaults %d != DemandPages %d", got, ss.DemandPages)
	}
	if got := eager.child.UnmappedFaults(); got != 0 {
		return fmt.Errorf("eager child resolved %d unmapped faults", got)
	}

	// COW-fault equivalence: materialization must not change which writes
	// fault.
	if eager.child.Faults() != lazy.child.Faults() {
		return fmt.Errorf("child COW faults: eager %d, lazy %d", eager.child.Faults(), lazy.child.Faults())
	}
	if eager.parent.Faults() != lazy.parent.Faults() {
		return fmt.Errorf("parent COW faults: eager %d, lazy %d", eager.parent.Faults(), lazy.parent.Faults())
	}

	// Contents.
	if err := snapshotsEqual("child", eager.child, lazy.child); err != nil {
		return err
	}
	if err := snapshotsEqual("parent", eager.parent, lazy.parent); err != nil {
		return err
	}

	// Exact virtual-time parity: every deferred charge lands exactly once,
	// so the family-wide total is mode-independent.
	if err := metersAddUp(eager, lazy); err != nil {
		return err
	}

	// Frame accounting: both pools hold the same number of live frames.
	if ef, lf := eager.m.FreeFrames(), lazy.m.FreeFrames(); ef != lf {
		return fmt.Errorf("free frames diverged: eager %d, lazy %d", ef, lf)
	}
	return audited(eager, lazy)
}

// audited runs Memory.Audit on both sides' pools.
func audited(eager, lazy *side) error {
	for _, s := range []*side{eager, lazy} {
		if err := s.m.Audit(); err != nil {
			return fmt.Errorf("%v: %w", s.mode, err)
		}
	}
	return nil
}

// metersAddUp asserts the lazy side's clone, workload and stream meters
// sum exactly to the eager side's clone and workload meters.
func metersAddUp(eager, lazy *side) error {
	eagerTotal := eager.clone.Meter().Elapsed() + eager.work.Meter().Elapsed()
	lazyTotal := lazy.clone.Meter().Elapsed() + lazy.stream.Meter().Elapsed() + lazy.work.Meter().Elapsed()
	if eagerTotal != lazyTotal {
		return fmt.Errorf("virtual-time parity broken: eager %d, lazy %d (clone %d + stream %d + work %d)",
			eagerTotal, lazyTotal, lazy.clone.Meter().Elapsed(), lazy.stream.Meter().Elapsed(), lazy.work.Meter().Elapsed())
	}
	return nil
}

// secondClone clones both parents eagerly after the drain completed. The
// lazy side's parent had its frames converted to dom_cow by the stream's
// adoptions, the eager side's by the first clone's transfers; the second
// clone must cost and count the same on both.
func (sc *Scenario) secondClone(eager, lazy *side) error {
	ectx, lctx := obs.OpCtx{}.EnsureMeter(nil), obs.OpCtx{}.EnsureMeter(nil)
	em, lm := ectx.Meter(), lctx.Meter()
	ec, est, err := eager.parent.CloneOp(ectx, secondDom, true)
	if err != nil {
		return fmt.Errorf("eager second clone: %w", err)
	}
	lc, lst, err := lazy.parent.CloneOp(lctx, secondDom, true)
	if err != nil {
		return fmt.Errorf("lazy-side second clone: %w", err)
	}
	if est != lst {
		return fmt.Errorf("second-clone stats diverged: eager %+v, lazy %+v", est, lst)
	}
	if em.Elapsed() != lm.Elapsed() {
		return fmt.Errorf("second-clone time diverged: eager %d, lazy %d", em.Elapsed(), lm.Elapsed())
	}
	if err := snapshotsEqual("second child", ec, lc); err != nil {
		return err
	}
	if err := lc.Release(); err != nil {
		return err
	}
	return ec.Release()
}

// Shrink finds the smallest failing workload prefix of a failing scenario:
// halving while the failure persists, then trimming trailing ops one at a
// time. It returns the minimal op count (0 means the failure needs no
// workload at all).
func (sc *Scenario) Shrink() int {
	n := len(sc.ops)
	for n > 0 {
		half := n / 2
		if sc.Run(half) == nil {
			break
		}
		n = half
	}
	for n > 0 && sc.Run(n-1) != nil {
		n--
	}
	return n
}
