package hv

import (
	"reflect"
	"sync"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// TestCloneBatchAffinityDeterminism: the affinity-planned round is a pure
// function of the request slice. Two identically-configured hypervisors
// given the same request slice must produce identical child IDs, identical
// per-request virtual times and identical conflict counts — the plan may
// permute the build pool's dequeue order, but nothing observable.
func TestCloneBatchAffinityDeterminism(t *testing.T) {
	run := func() ([]DomID, []vclock.Duration, int64) {
		h, parents := batchReady(t, 6, 64, 4)
		reqs := make([]CloneRequest, len(parents))
		meters := make([]*vclock.Meter, len(parents))
		for i, p := range parents {
			meters[i] = vclock.NewMeter(nil)
			reqs[i] = CloneRequest{Caller: p.ID, Target: p.ID, N: 2, CopyRing: true, Ctx: obs.Ctx(meters[i])}
		}
		results := h.CloneBatch(obs.OpCtx{}, reqs)
		var ids []DomID
		var times []vclock.Duration
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("request %d: %v", i, r.Err)
			}
			ids = append(ids, r.Children...)
			times = append(times, meters[i].Elapsed())
		}
		completeAll(t, h, results)
		return ids, times, h.Metrics().Counter("hv.batch.shard_conflicts").Value()
	}
	ids1, times1, conf1 := run()
	ids2, times2, conf2 := run()
	if !reflect.DeepEqual(ids1, ids2) {
		t.Fatalf("child IDs diverged: %v vs %v", ids1, ids2)
	}
	if !reflect.DeepEqual(times1, times2) {
		t.Fatalf("virtual times diverged: %v vs %v", times1, times2)
	}
	if conf1 != conf2 {
		t.Fatalf("conflict counts diverged: %d vs %d", conf1, conf2)
	}
}

// TestCloneBatchAffinityMatchesFixed: the affinity-planned round returns
// byte-identical per-request results to the fixed-order round — same
// children, same meters, same stats — because planning only reorders the
// build pool's queue. (CloneBatch with one request bypasses
// planning; this exercises the multi-request path against it.)
func TestCloneBatchAffinityMatchesFixed(t *testing.T) {
	type outcome struct {
		children []DomID
		elapsed  vclock.Duration
		shared   int
	}
	run := func(batched bool) []outcome {
		h, parents := batchReady(t, 4, 64, 4)
		var out []outcome
		if batched {
			reqs := make([]CloneRequest, len(parents))
			meters := make([]*vclock.Meter, len(parents))
			for i, p := range parents {
				meters[i] = vclock.NewMeter(nil)
				reqs[i] = CloneRequest{Caller: p.ID, Target: p.ID, N: 2, CopyRing: true, Ctx: obs.Ctx(meters[i])}
			}
			results := h.CloneBatch(obs.OpCtx{}, reqs)
			completeAll(t, h, results)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("request %d: %v", i, r.Err)
				}
				out = append(out, outcome{r.Children, meters[i].Elapsed(), r.Stats.Memory.SharedPages})
			}
		} else {
			for _, p := range parents {
				meter := vclock.NewMeter(nil)
				r := h.Clone(CloneRequest{Caller: p.ID, Target: p.ID, N: 2, CopyRing: true, Ctx: obs.Ctx(meter)})
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				completeAll(t, h, []CloneResult{r})
				out = append(out, outcome{r.Children, meter.Elapsed(), r.Stats.Memory.SharedPages})
			}
		}
		return out
	}
	batched := run(true)
	solo := run(false)
	for i := range solo {
		if batched[i].elapsed != solo[i].elapsed {
			t.Errorf("request %d: batched virtual time %v, solo %v", i, batched[i].elapsed, solo[i].elapsed)
		}
		if batched[i].shared != solo[i].shared {
			t.Errorf("request %d: batched SharedPages %d, solo %d", i, batched[i].shared, solo[i].shared)
		}
	}
}

// TestCloneBatchDuringRestride races multi-parent rounds against re-stride
// cycles on the shared pool: every clone must come out whole (run under
// -race in CI). The scheduler's masks are advisory, so a layout swapped
// mid-round costs at most contention.
func TestCloneBatchDuringRestride(t *testing.T) {
	h, parents := batchReady(t, 4, 64, 0)
	for _, p := range parents {
		if err := h.DomctlSetCloning(p.ID, true, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 10
	if testing.Short() {
		rounds = 3
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		counts := []int{2, 16, 4, 8}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := h.Memory.Restride(counts[i%len(counts)]); err != nil {
				t.Errorf("Restride: %v", err)
				return
			}
		}
	}()
	for r := 0; r < rounds; r++ {
		reqs := make([]CloneRequest, len(parents))
		for i, p := range parents {
			reqs[i] = CloneRequest{Caller: p.ID, Target: p.ID, N: 2, CopyRing: true}
		}
		results := h.CloneBatch(obs.OpCtx{}, reqs)
		for i, res := range results {
			if res.Err != nil {
				t.Fatalf("round %d request %d: %v", r, i, res.Err)
			}
		}
		h.PopNotifications() // drain the ring like xencloned would
		completeAll(t, h, results)
		for _, res := range results {
			for _, k := range res.Children {
				if err := h.DomainDestroy(obs.OpCtx{}, k); err != nil {
					t.Fatalf("destroy child %d: %v", k, err)
				}
			}
		}
	}
	close(stop)
	wg.Wait()
	// Nothing leaked: only Dom0 and the four parents hold memory.
	for _, p := range parents {
		if got := h.Memory.UsedBy(p.ID + 1000); got != 0 {
			t.Fatalf("stray domain holds %d frames", got)
		}
	}
}

// TestShardMaskCoversParents: the request masks the planner sees cover the
// parents' actual frames, so disjoint parents on a host-sized pool plan
// into one wave with zero conflicts.
func TestShardMaskCoversParents(t *testing.T) {
	h := New(Config{MemoryBytes: 12 << 30, MaxEventPorts: 64, GrantEntries: 64,
		NotifyRingSlots: 16, PerDomainOverheadFrames: 4})
	h.SetCloningEnabled(true)
	pages := 64 << 20 / mem.PageSize
	var masks []uint32
	for i := 0; i < 4; i++ {
		p, err := h.DomainCreate(obs.OpCtx{}, pages, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.DomctlSetCloning(p.ID, true, 4); err != nil {
			t.Fatal(err)
		}
		masks = append(masks, p.Space().ShardOccupancy())
	}
	for i := range masks {
		for j := i + 1; j < len(masks); j++ {
			if masks[i]&masks[j] != 0 {
				t.Fatalf("parents %d and %d overlap: %b & %b", i, j, masks[i], masks[j])
			}
		}
	}
	waves, conflicts := mem.PlanWaves(masks)
	if len(waves) != 1 || conflicts != 0 {
		t.Fatalf("disjoint parents planned as %v with %d conflicts", waves, conflicts)
	}
}
