package core

import (
	"errors"
	"fmt"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// bootParents boots n independent guests, each with its own vif.
func bootParents(t *testing.T, p *Platform, n int) []DomID {
	t.Helper()
	ids := make([]DomID, n)
	for i := range ids {
		cfg := toolstack.DomainConfig{
			Name:      fmt.Sprintf("svc-%d", i),
			MemoryMB:  4,
			VCPUs:     1,
			MaxClones: 100,
			Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, byte(i + 1), 2}}},
		}
		rec, err := p.Boot(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	return ids
}

// state is what a refused clone must leave as it found: domains, free
// frames and Xenstore nodes.
func state(p *Platform) [3]int {
	return [3]int{p.HV.DomainCount(), p.HV.Memory.FreeFrames(), p.Store.NodeCount()}
}

// TestCloneManyMultiParent: four independent parents each fork two
// children with their own CloneOp, one after the other, through the whole
// two-stage pipeline; every child comes out adopted and running and every
// parent resumed.
func TestCloneManyMultiParent(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	for _, id := range bootParents(t, p, 4) {
		res, err := fork(p, id, 2, nil)
		if err != nil {
			t.Fatalf("parent %d: %v", id, err)
		}
		if len(res.Children) != 2 || len(res.Failed) != 0 {
			t.Fatalf("parent %d: %d children, %d failed", id, len(res.Children), len(res.Failed))
		}
		if res.FirstStage <= 0 || res.SecondStage <= 0 || res.Total <= 0 || res.Total < res.FirstStage {
			t.Fatalf("parent %d timings: first=%v second=%v total=%v",
				id, res.FirstStage, res.SecondStage, res.Total)
		}
		for _, k := range res.Children {
			cd, err := p.HV.Domain(k)
			if _, rerr := p.XL.Record(k); err != nil || rerr != nil || cd.Paused() || !p.HV.SameFamily(id, k) {
				t.Fatalf("child %d of %d not adopted and running: %v, %v", k, id, err, rerr)
			}
		}
		if pd, _ := p.HV.Domain(id); pd.Paused() {
			t.Fatalf("parent %d still paused", id)
		}
	}
}

// TestCloneManyVirtualTimeMatchesClone: parents forking one CloneOp after
// the other each report the FirstStage a solo CloneOp reports — what fig mp
// plots.
func TestCloneManyVirtualTimeMatchesClone(t *testing.T) {
	solo := smallPlatform(Options{SkipNameCheck: true})
	soloRes, err := fork(solo, bootParents(t, solo, 1)[0], 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := smallPlatform(Options{SkipNameCheck: true})
	for _, id := range bootParents(t, p, 2) {
		res, err := fork(p, id, 2, nil)
		if err != nil || len(res.Children) != 2 {
			t.Fatalf("parent %d: %+v, %v", id, res, err)
		}
		if res.FirstStage != soloRes.FirstStage {
			t.Errorf("parent %d FirstStage = %v, solo CloneOp = %v", id, res.FirstStage, soloRes.FirstStage)
		}
	}
}

// TestCloneManyPartialAdmission: a spec whose parent may not clone is
// refused with nothing moved, and the parents beside it fork normally.
func TestCloneManyPartialAdmission(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parents := bootParents(t, p, 2)
	rec, err := p.Boot(toolstack.DomainConfig{Name: "noclone", MemoryMB: 4, VCPUs: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := state(p)
	if res, err := fork(p, rec.ID, 1, nil); !errors.Is(err, hv.ErrCloningDisabled) || res != nil {
		t.Fatalf("no-clone spec: %+v, %v; want ErrCloningDisabled", res, err)
	}
	if got := state(p); got != before {
		t.Fatalf("refused spec moved domains/frames/nodes %v → %v", before, got)
	}
	for _, id := range parents {
		if res, err := fork(p, id, 1, nil); err != nil || len(res.Children) != 1 {
			t.Fatalf("parent %d: %+v, %v", id, res, err)
		}
	}
}

// elsewhere is a placement that sends every child to host 1.
type elsewhere struct{}

func (elsewhere) Name() string { return "elsewhere" }
func (elsewhere) Place(n, _ int, _ []HostStats) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// TestCloneOpPlacedSpecWithoutRouter: a placed spec on a platform with no
// cluster router fails with ErrNoRouter before anything runs.
func TestCloneOpPlacedSpecWithoutRouter(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parent := bootParents(t, p, 1)[0]
	before := state(p)
	results, err := p.CloneOp(obs.OpCtx{}, CloneSpec{Caller: parent, Parent: parent, Count: 2, Placement: elsewhere{}})
	if !errors.Is(err, ErrNoRouter) || len(results) != 0 {
		t.Fatalf("results %v, err %v; want none and ErrNoRouter", results, err)
	}
	if got := state(p); got != before {
		t.Fatalf("unroutable spec moved domains/frames/nodes %v → %v", before, got)
	}
	if d, _ := p.HV.Domain(parent); d.Paused() {
		t.Fatal("parent left paused")
	}
}

// TestCloneOpRejectsNonPositiveCount: a spec asking for zero or fewer
// children is refused by the hypervisor's admission (hv.ErrBadCloneCount)
// with nothing moved — the parent keeps running, no domain appears — and the
// parent forks normally afterwards.
func TestCloneOpRejectsNonPositiveCount(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parent := bootParents(t, p, 1)[0]
	for _, count := range []int{-1, 0} {
		domains := p.HV.DomainCount()
		res, err := p.CloneOp(obs.OpCtx{}, CloneSpec{Caller: parent, Parent: parent, Count: count})
		if !errors.Is(err, hv.ErrBadCloneCount) || len(res) != 0 {
			t.Fatalf("Count=%d: results %v, err %v; want none and ErrBadCloneCount", count, res, err)
		}
		d, err := p.HV.Domain(parent)
		if err != nil {
			t.Fatal(err)
		}
		if d.Paused() || p.HV.DomainCount() != domains {
			t.Fatalf("Count=%d: refused clone left the parent paused (%t) or %d domains, want %d",
				count, d.Paused(), p.HV.DomainCount(), domains)
		}
	}
	res, err := fork(p, parent, 1, nil)
	if err != nil || len(res.Children) != 1 || res.Children[0] != parent+1 {
		t.Fatalf("fork after refused clones: %+v, %v; want the next domain ID %d", res, err, parent+1)
	}
}

// TestCloneOpPartialFirstStage: a first stage that fails at its second
// child returns the first one with the error, served and running, and the
// parent resumed; destroying that child gives every frame back.
func TestCloneOpPartialFirstStage(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parent := bootParents(t, p, 1)[0]
	reg := fault.NewRegistry()
	reg.Inject(fault.PointHVCloneOne, fault.FailNth(2), fault.Fatal)
	p.SetFaults(reg)
	free := p.HV.Memory.FreeFrames()
	res, err := fork(p, parent, 2, nil)
	if pt, _ := fault.PointOf(err); pt != fault.PointHVCloneOne {
		t.Fatalf("err = %v, want the injected %s fault", err, fault.PointHVCloneOne)
	}
	if res == nil || len(res.Children) != 1 || len(res.Failed) != 0 {
		t.Fatalf("result %+v, want one child", res)
	}
	child := res.Children[0]
	if d, err := p.HV.Domain(child); err != nil || d.Paused() {
		t.Fatalf("child %d not running: %v", child, err)
	}
	if d, _ := p.HV.Domain(parent); d.Paused() {
		t.Fatal("parent left paused")
	}
	if err := p.Destroy(child, nil); err != nil {
		t.Fatal(err)
	}
	if got := p.HV.Memory.FreeFrames(); got != free {
		t.Fatalf("%d free frames after destroying the child, want %d", got, free)
	}
}
