package hv

import (
	"errors"
	"reflect"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// batchReady creates a hypervisor with cloning enabled and `parents`
// identically-configured parent domains.
func batchReady(t *testing.T, parents, pages, maxClones int) (*Hypervisor, []*Domain) {
	t.Helper()
	h := newHV(t)
	h.SetCloningEnabled(true)
	doms := make([]*Domain, parents)
	for i := range doms {
		p, err := h.DomainCreate(obs.OpCtx{}, pages, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.DomctlSetCloning(p.ID, true, maxClones); err != nil {
			t.Fatal(err)
		}
		doms[i] = p
	}
	return h, doms
}

// completeAll acknowledges the second stage for every child of every
// successful result and waits for the Done channels (parents resumed).
func completeAll(t *testing.T, h *Hypervisor, results []CloneResult) {
	t.Helper()
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		for _, k := range r.Children {
			if err := h.CloneCompletion(obs.OpCtx{}, k, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, r := range results {
		if r.Done != nil {
			<-r.Done
		}
	}
}

// TestCloneBatchVirtualTimeMatchesSolo is the determinism claim of the
// multi-parent round: a request's virtual-time output in a batch with
// other parents is byte-identical to running it alone, because each
// request only ever charges its own meter.
func TestCloneBatchVirtualTimeMatchesSolo(t *testing.T) {
	const pages, n = 64, 2

	// Solo run: one parent, one Clone.
	hs, solos := batchReady(t, 1, pages, 4)
	soloMeter := vclock.NewMeter(nil)
	kids, soloStats, done, err := cloneN(hs, solos[0].ID, solos[0].ID, n, soloMeter)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kids {
		hs.CloneCompletion(obs.OpCtx{}, k, true)
	}
	<-done

	// Batched run: three identical parents in one round.
	hb, parents := batchReady(t, 3, pages, 4)
	reqs := make([]CloneRequest, len(parents))
	meters := make([]*vclock.Meter, len(parents))
	for i, p := range parents {
		meters[i] = vclock.NewMeter(nil)
		reqs[i] = CloneRequest{Caller: p.ID, Target: p.ID, N: n, CopyRing: true, Ctx: obs.Ctx(meters[i])}
	}
	results := hb.CloneBatch(reqs)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if got, want := meters[i].Elapsed(), soloMeter.Elapsed(); got != want {
			t.Errorf("request %d virtual time = %v, solo run = %v", i, got, want)
		}
		if got, want := r.Stats.FirstStage, soloStats.FirstStage; got != want {
			t.Errorf("request %d FirstStage = %v, solo = %v", i, got, want)
		}
		if got, want := r.Stats.Memory.SharedPages, soloStats.Memory.SharedPages; got != want {
			t.Errorf("request %d SharedPages = %d, solo = %d", i, got, want)
		}
	}
	completeAll(t, hb, results)
}

// TestCloneBatchMultiParent checks the structure of a three-parent round:
// child IDs are reserved in admission order, every parent stays paused
// until its own children complete, and the family links are correct.
func TestCloneBatchMultiParent(t *testing.T) {
	h, parents := batchReady(t, 3, 32, 4)
	reqs := []CloneRequest{
		{Caller: parents[0].ID, Target: parents[0].ID, N: 2, CopyRing: true},
		{Caller: parents[1].ID, Target: parents[1].ID, N: 1, CopyRing: true},
		{Caller: parents[2].ID, Target: parents[2].ID, N: 2, CopyRing: true},
	}
	results := h.CloneBatch(reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}

	// IDs are assigned contiguously in admission order.
	next := parents[2].ID + 1
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("request %d: %v", i, r.Err)
		}
		if len(r.Children) != reqs[i].N {
			t.Fatalf("request %d: %d children, want %d", i, len(r.Children), reqs[i].N)
		}
		for _, k := range r.Children {
			if k != next {
				t.Errorf("request %d child = %d, want %d (admission-order IDs)", i, k, next)
			}
			next++
			c, err := h.Domain(k)
			if err != nil {
				t.Fatalf("child %d missing: %v", k, err)
			}
			if pid, ok := c.Parent(); !ok || pid != reqs[i].Target {
				t.Errorf("child %d parent = %d (%v), want %d", k, pid, ok, reqs[i].Target)
			}
		}
	}

	// All parents are paused until their second stages complete.
	for i, p := range parents {
		if !p.Paused() {
			t.Errorf("parent %d not paused after first stage", i)
		}
	}
	completeAll(t, h, results)
	for i, p := range parents {
		if p.Paused() {
			t.Errorf("parent %d still paused after round completed", i)
		}
	}
}

// TestCloneBatchAdmissionFailureIsolated: a request that fails admission
// (cloning never enabled on its target) reports its error without
// disturbing the neighbouring requests in the round.
func TestCloneBatchAdmissionFailureIsolated(t *testing.T) {
	h, parents := batchReady(t, 2, 32, 4)
	outsider, err := h.DomainCreate(obs.OpCtx{}, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs := []CloneRequest{
		{Caller: parents[0].ID, Target: parents[0].ID, N: 1, CopyRing: true},
		{Caller: outsider.ID, Target: outsider.ID, N: 1, CopyRing: true},
		{Caller: parents[1].ID, Target: parents[1].ID, N: 1, CopyRing: true},
	}
	results := h.CloneBatch(reqs)
	if !errors.Is(results[1].Err, ErrCloningDisabled) {
		t.Fatalf("outsider request error = %v, want ErrCloningDisabled", results[1].Err)
	}
	if outsider.Paused() {
		t.Error("outsider paused by failed admission")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
		if len(results[i].Children) != 1 {
			t.Fatalf("request %d: %d children, want 1", i, len(results[i].Children))
		}
	}
	completeAll(t, h, results)
}

// TestCloneBatchFaultGatePerRequest: the fault gate is consulted in
// admission order across the round, so an nth-hit fault lands on a
// deterministic request; that request fails and refunds its budget while
// the others complete untouched.
func TestCloneBatchFaultGatePerRequest(t *testing.T) {
	h, parents := batchReady(t, 2, 32, 4)
	r := fault.NewRegistry()
	// Request 0 consults the gate twice (N=2); the third hit is request
	// 1's first child.
	r.Inject(fault.PointHVCloneOne, fault.FailNth(3), fault.Fatal)
	h.SetFaults(r)
	reqs := []CloneRequest{
		{Caller: parents[0].ID, Target: parents[0].ID, N: 2, CopyRing: true},
		{Caller: parents[1].ID, Target: parents[1].ID, N: 2, CopyRing: true},
	}
	results := h.CloneBatch(reqs)
	if results[0].Err != nil {
		t.Fatalf("request 0: %v", results[0].Err)
	}
	if !fault.IsFatal(results[1].Err) {
		t.Fatalf("request 1 error = %v, want fatal fault", results[1].Err)
	}
	if len(results[1].Children) != 0 {
		t.Fatalf("request 1 built %d children past a gate failure", len(results[1].Children))
	}
	if parents[1].Paused() {
		t.Error("failed request left its parent paused")
	}
	completeAll(t, h, results)

	// The failed request refunded its budget and returned its reserved
	// IDs: parent 1 can still use its full allowance.
	h.SetFaults(nil)
	kids, _, done, err := cloneN(h, parents[1].ID, parents[1].ID, 4, nil)
	if err != nil {
		t.Fatalf("post-fault clone: %v", err)
	}
	for _, k := range kids {
		h.CloneCompletion(obs.OpCtx{}, k, true)
	}
	<-done
}

// TestCloneBatchRejectsNonPositiveCount: the child count is a guest-supplied
// hypercall argument. A request for zero or fewer children fails with
// ErrBadCloneCount before any state moves — its parent is not paused, its
// clone budget and the domain numbering stay where they were — and the good
// request beside it gets exactly what it gets alone.
func TestCloneBatchRejectsNonPositiveCount(t *testing.T) {
	const pages, n = 64, 2
	hs, solos := batchReady(t, 2, pages, 4)
	soloMeter := vclock.NewMeter(nil)
	soloKids, soloStats, soloDone, err := cloneN(hs, solos[1].ID, solos[1].ID, n, soloMeter)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range soloKids {
		hs.CloneCompletion(obs.OpCtx{}, k, true)
	}
	<-soloDone

	for _, bad := range []int{-1, 0} {
		h, parents := batchReady(t, 2, pages, 4)
		meter := vclock.NewMeter(nil)
		results := h.CloneBatch([]CloneRequest{
			{Caller: parents[0].ID, Target: parents[0].ID, N: bad, CopyRing: true},
			{Caller: parents[1].ID, Target: parents[1].ID, N: n, CopyRing: true, Ctx: obs.Ctx(meter)},
		})
		if r := results[0]; !errors.Is(r.Err, ErrBadCloneCount) || len(r.Children) != 0 || r.Done != nil {
			t.Fatalf("N=%d: result %+v, want ErrBadCloneCount and nothing else", bad, r)
		}
		if parents[0].Paused() {
			t.Errorf("N=%d: refused request left its parent paused", bad)
		}
		parents[0].mu.Lock()
		made := parents[0].clone.made
		parents[0].mu.Unlock()
		if made != 0 {
			t.Errorf("N=%d: refused request moved the clone budget to %d", bad, made)
		}
		good := results[1]
		if good.Err != nil {
			t.Fatalf("N=%d: good neighbour failed: %v", bad, good.Err)
		}
		if !reflect.DeepEqual(good.Children, soloKids) {
			t.Errorf("N=%d: neighbour's children %v, alone %v (domain numbering moved)", bad, good.Children, soloKids)
		}
		if meter.Elapsed() != soloMeter.Elapsed() || good.Stats.FirstStage != soloStats.FirstStage {
			t.Errorf("N=%d: neighbour charged %v (first stage %v), alone %v (%v)",
				bad, meter.Elapsed(), good.Stats.FirstStage, soloMeter.Elapsed(), soloStats.FirstStage)
		}
		completeAll(t, h, results)
		if parents[0].Paused() || parents[1].Paused() {
			t.Errorf("N=%d: a parent is still paused after the round completed", bad)
		}
	}
}

// TestCloneBatchRoundDeterminism: a round is a pure function of its request
// slice. Two identically-configured hypervisors given the same six-parent
// round must produce identical child IDs and identical per-request virtual
// times, whatever order the build pool happened to run the children in.
func TestCloneBatchRoundDeterminism(t *testing.T) {
	run := func() ([]DomID, []vclock.Duration) {
		h, parents := batchReady(t, 6, 64, 4)
		reqs := make([]CloneRequest, len(parents))
		meters := make([]*vclock.Meter, len(parents))
		for i, p := range parents {
			meters[i] = vclock.NewMeter(nil)
			reqs[i] = CloneRequest{Caller: p.ID, Target: p.ID, N: 2, CopyRing: true, Ctx: obs.Ctx(meters[i])}
		}
		results := h.CloneBatch(reqs)
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
		return ids, times
	}
	ids1, times1 := run()
	ids2, times2 := run()
	if !reflect.DeepEqual(ids1, ids2) {
		t.Fatalf("child IDs diverged: %v vs %v", ids1, ids2)
	}
	if !reflect.DeepEqual(times1, times2) {
		t.Fatalf("virtual times diverged: %v vs %v", times1, times2)
	}
}

// TestCloneBatchRoundMatchesSolo: a round of four requests returns the same
// per-request results — children's virtual time, shared pages — as four
// solo clones of the same parents, one after the other.
func TestCloneBatchRoundMatchesSolo(t *testing.T) {
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
			results := h.CloneBatch(reqs)
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
