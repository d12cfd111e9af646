package core

import (
	"errors"
	"fmt"
	"testing"

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

// TestCloneManyMultiParent runs one multi-parent scheduling round through
// the whole two-stage pipeline: four independent parents each fork two
// children in a single round, and every child comes out fully adopted.
func TestCloneManyMultiParent(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parents := bootParents(t, p, 4)

	specs := make([]CloneSpec, len(parents))
	for i, id := range parents {
		specs[i] = CloneSpec{Caller: id, Parent: id, Count: 2}
	}
	results, err := p.CloneOp(obs.OpCtx{}, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("results = %d, want %d", len(results), len(specs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
		if len(res.Children) != 2 || len(res.Failed) != 0 {
			t.Fatalf("request %d: %d children, %d failed", i, len(res.Children), len(res.Failed))
		}
		if res.FirstStage <= 0 || res.SecondStage <= 0 || res.Total <= 0 || res.Total < res.FirstStage {
			t.Fatalf("request %d timings: first=%v second=%v total=%v",
				i, res.FirstStage, res.SecondStage, res.Total)
		}
		for _, k := range res.Children {
			if !p.HV.SameFamily(parents[i], k) {
				t.Fatalf("child %d not in family of %d", k, parents[i])
			}
			if _, err := p.XL.Record(k); err != nil {
				t.Fatalf("child %d not adopted by toolstack: %v", k, err)
			}
			cd, err := p.HV.Domain(k)
			if err != nil {
				t.Fatal(err)
			}
			if cd.Paused() {
				t.Fatalf("child %d paused after completed round", k)
			}
		}
		pd, _ := p.HV.Domain(parents[i])
		if pd.Paused() {
			t.Fatalf("parent %d still paused after round", parents[i])
		}
	}
}

// TestCloneManyVirtualTimeMatchesClone: a parent's first-stage virtual
// time inside a multi-parent round equals what a one-spec CloneOp alone
// reports — the golden-series determinism argument at the platform level.
func TestCloneManyVirtualTimeMatchesClone(t *testing.T) {
	boot := func() (*Platform, []DomID) {
		p := smallPlatform(Options{SkipNameCheck: true})
		return p, bootParents(t, p, 2)
	}

	solo, soloParents := boot()
	soloRes, err := fork(solo, soloParents[0], 2, nil)
	if err != nil {
		t.Fatal(err)
	}

	batch, batchParents := boot()
	results, err := batch.CloneOp(obs.OpCtx{},
		CloneSpec{Caller: batchParents[0], Parent: batchParents[0], Count: 2},
		CloneSpec{Caller: batchParents[1], Parent: batchParents[1], Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.FirstStage != soloRes.FirstStage {
			t.Errorf("request %d FirstStage = %v, solo CloneOp = %v", i, res.FirstStage, soloRes.FirstStage)
		}
	}
}

// TestCloneManyPartialAdmission: a request targeting a domain that cannot
// clone fails alone; its neighbours' rounds complete.
func TestCloneManyPartialAdmission(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parents := bootParents(t, p, 2)
	cfg := toolstack.DomainConfig{Name: "noclone", MemoryMB: 4, VCPUs: 1}
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	results, err := p.CloneOp(obs.OpCtx{},
		CloneSpec{Caller: parents[0], Parent: parents[0], Count: 1},
		CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1},
		CloneSpec{Caller: parents[1], Parent: parents[1], Count: 1})
	if err == nil {
		t.Fatal("round with failed admission reported no error")
	}
	if results[1].Err == nil {
		t.Fatal("no-clone request succeeded")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
		if len(results[i].Children) != 1 {
			t.Fatalf("request %d children = %d", i, len(results[i].Children))
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

// TestCloneOpPlacedSpecWithoutRouter: a round holding a placed spec on a
// platform with no cluster router fails as a whole before anything runs —
// the placement-free spec ahead of it must not have cloned.
func TestCloneOpPlacedSpecWithoutRouter(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	parents := bootParents(t, p, 2)
	domains, free, nodes := p.HV.DomainCount(), p.HV.Memory.FreeFrames(), p.Store.NodeCount()

	results, err := p.CloneOp(obs.OpCtx{},
		CloneSpec{Caller: parents[0], Parent: parents[0], Count: 2},
		CloneSpec{Caller: parents[1], Parent: parents[1], Count: 1, Placement: elsewhere{}})
	if !errors.Is(err, ErrNoRouter) {
		t.Fatalf("err = %v, want ErrNoRouter", err)
	}
	if len(results) != 0 {
		t.Fatalf("unroutable round returned %d results", len(results))
	}
	if got := p.HV.DomainCount(); got != domains {
		t.Fatalf("domains = %d, want %d", got, domains)
	}
	if got := p.HV.Memory.FreeFrames(); got != free {
		t.Fatalf("free frames = %d, want %d", got, free)
	}
	if got := p.Store.NodeCount(); got != nodes {
		t.Fatalf("xenstore nodes = %d, want %d", got, nodes)
	}
	for _, id := range parents {
		if d, _ := p.HV.Domain(id); d.Paused() {
			t.Fatalf("parent %d left paused", id)
		}
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
