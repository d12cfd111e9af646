package cloned

import (
	"fmt"
	"math/rand"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// serveAll disarms r's faults, runs a final daemon pass over whatever the
// schedule left queued, and checks that the ring is empty and that every
// request's completion record released its parent.
func serveAll(t *testing.T, r *faultRig, dones []<-chan struct{}) {
	t.Helper()
	r.faults.Reset()
	if _, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); err != nil {
		t.Fatalf("final drain failed with injection disarmed: %v", err)
	}
	if pending := r.hv.PendingNotifications(); pending != 0 {
		t.Fatalf("%d notifications left in the ring", pending)
	}
	for i, done := range dones {
		select {
		case <-done:
		default:
			t.Fatalf("request %d: parent completion never released", i)
		}
	}
}

// TestStressCloningUnderRandomFaults interleaves clone requests, daemon
// passes and fault arming from one seeded schedule: requests pile up on the
// ring while random pipeline points fire with random kinds and triggers,
// with xs_clone and with the deep-copy ablation. It checks the pipeline's
// liveness and conservation properties: no parent waits forever on a
// failed child, every child ends in exactly one terminal state, and the
// final machine state accounts for every clone — completed ones exist and
// run, aborted ones leave nothing.
func TestStressCloningUnderRandomFaults(t *testing.T) {
	stressRandomFaults(t, Options{}, 42)
	stressRandomFaults(t, Options{UseDeepCopy: true}, 2)
}

func stressRandomFaults(t *testing.T, opts Options, seed int64) {
	r := newFaultRig(t, opts)
	rec := r.bootParent(t)
	rng := rand.New(rand.NewSource(seed))
	points := fault.PipelinePoints()

	var created []hv.DomID
	var dones []<-chan struct{}
	cloneErrs := 0
	for step := 0; step < 100; step++ {
		switch rng.Intn(4) {
		case 0:
			kind := fault.Transient
			if rng.Intn(2) == 0 {
				kind = fault.Fatal
			}
			r.faults.Inject(points[rng.Intn(len(points))], fault.FailNth(1+rng.Intn(4)), kind)
		case 1:
			r.faults.Clear(points[rng.Intn(len(points))])
		case 2:
			kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1+rng.Intn(2), vclock.NewMeter(nil))
			created = append(created, kids...)
			if err != nil {
				// First-stage fault: no completion to wait for (a partial
				// batch's survivors complete with the next daemon pass).
				cloneErrs++
				continue
			}
			dones = append(dones, done)
		case 3:
			r.d.Serve(obs.Ctx(vclock.NewMeter(nil)))
		}
	}
	serveAll(t, r, dones)

	// Conservation: every created child has exactly one terminal outcome.
	var completed, aborted []hv.DomID
	for _, k := range created {
		out, ok := r.hv.CloneOutcome(k)
		if !ok {
			t.Fatalf("child %d has no terminal outcome", k)
		}
		switch out {
		case hv.OutcomeCompleted:
			completed = append(completed, k)
		case hv.OutcomeAborted:
			aborted = append(aborted, k)
		default:
			t.Fatalf("child %d in non-terminal state %v", k, out)
		}
	}
	t.Logf("clones: %d created, %d completed, %d aborted, %d clone calls failed",
		len(created), len(completed), len(aborted), cloneErrs)

	// Completed children exist and run; aborted ones left nothing behind.
	for _, k := range completed {
		d, err := r.hv.Domain(k)
		if err != nil {
			t.Fatalf("completed child %d missing from the hypervisor", k)
		}
		if d.Paused() {
			t.Errorf("completed child %d left paused", k)
		}
		if _, err := r.xl.Record(k); err != nil {
			t.Errorf("completed child %d missing from the toolstack", k)
		}
	}
	for _, k := range aborted {
		if _, err := r.hv.Domain(k); err == nil {
			t.Errorf("aborted child %d still in the hypervisor", k)
		}
		if r.store.Exists(fmt.Sprintf("/local/domain/%d", k), nil) {
			t.Errorf("aborted child %d left Xenstore residue", k)
		}
	}
	if got, want := r.hv.DomainCount(), 2+len(completed); got != want {
		t.Fatalf("domain count = %d, want %d (Dom0 + parent + completed clones); domains %v, created %v",
			got, want, r.hv.Domains(), created)
	}
	if got := r.d.Served(); got != len(completed) {
		t.Fatalf("daemon served %d, but %d children completed", got, len(completed))
	}
	st := r.d.FailureStats()
	if st.Aborts != len(aborted) {
		t.Fatalf("stats report %d aborts, but %d children aborted", st.Aborts, len(aborted))
	}
	if st.Failures != st.Aborts {
		t.Fatalf("stats = %+v: every terminal failure must have exactly one abort", st)
	}
	if pd, _ := r.hv.Domain(rec.ID); pd.Paused() {
		t.Fatal("parent left paused after the storm")
	}
}

// TestStressMultiParentCloneOpServeAll interleaves CLONEOPs from several
// distinct parents with daemon passes from one seeded schedule, so each
// Serve drains mixed batches whose completion records belong to different
// parents and requests. It checks that every child of every parent
// completes, every parent resumes, and the final machine state accounts
// for every clone.
func TestStressMultiParentCloneOpServeAll(t *testing.T) {
	const (
		parents = 4
		batch   = 3
	)
	r := newFaultRig(t, Options{})
	recs := make([]*toolstack.Record, parents)
	for i := range recs {
		rec, err := r.xl.Create(toolstack.DomainConfig{
			Name:      fmt.Sprintf("mp-parent-%d", i),
			MemoryMB:  4,
			VCPUs:     1,
			MaxClones: 256,
			Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, byte(10 + i)}}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}

	rng := rand.New(rand.NewSource(7))
	created := make(map[hv.DomID][]hv.DomID) // parent -> children in creation order
	var dones []<-chan struct{}
	for step := 0; step < 40; step++ {
		if rng.Intn(3) == 0 {
			if _, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); err != nil {
				t.Fatalf("step %d: Serve: %v", step, err)
			}
			continue
		}
		parent := recs[rng.Intn(parents)].ID
		kids, _, done, err := cloneN(r.hv, parent, parent, 1+rng.Intn(batch), vclock.NewMeter(nil))
		if err != nil {
			t.Fatalf("step %d: clone of %d failed: %v", step, parent, err)
		}
		created[parent] = append(created[parent], kids...)
		dones = append(dones, done)
	}
	serveAll(t, r, dones)

	total := 0
	for parent, kids := range created {
		for _, k := range kids {
			out, ok := r.hv.CloneOutcome(k)
			if !ok || out != hv.OutcomeCompleted {
				t.Fatalf("child %d of parent %d: outcome %v, ok=%v, want completed", k, parent, out, ok)
			}
			d, err := r.hv.Domain(k)
			if err != nil {
				t.Fatalf("completed child %d missing from the hypervisor", k)
			}
			if d.Paused() {
				t.Errorf("completed child %d left paused", k)
			}
			if _, err := r.xl.Record(k); err != nil {
				t.Errorf("completed child %d missing from the toolstack", k)
			}
		}
		total += len(kids)
	}
	if got, want := r.hv.DomainCount(), 1+parents+total; got != want {
		t.Fatalf("domain count = %d, want %d (Dom0 + %d parents + %d clones)", got, want, parents, total)
	}
	if got := r.d.Served(); got != total {
		t.Fatalf("daemon served %d, but %d children completed", got, total)
	}
	for _, rec := range recs {
		if pd, _ := r.hv.Domain(rec.ID); pd.Paused() {
			t.Fatalf("parent %d left paused", rec.ID)
		}
	}
}
