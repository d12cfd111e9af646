package cloned

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"nephele/internal/devices"
	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// faultRig is a rig with every device type (including a vbd backend, which
// the base rig omits) and a fault registry threaded through the whole
// pipeline, so any fault point of the matrix can actually fire.
type faultRig struct {
	hv     *hv.Hypervisor
	store  *xenstore.Store
	xl     *toolstack.XL
	d      *Daemon
	bond   *netsim.Bond
	faults *fault.Registry
}

func newFaultRig(t testing.TB, opts Options) *faultRig {
	t.Helper()
	hyp := hv.New(hv.Config{
		MemoryBytes:             512 << 20,
		MaxEventPorts:           64,
		GrantEntries:            64,
		NotifyRingSlots:         64,
		PerDomainOverheadFrames: 8,
	})
	store := xenstore.New(0)
	udev := devices.NewUdevQueue()
	fs := devices.NewHostFS()
	fs.WriteFile("export/x", []byte("x"))
	be := toolstack.Backends{
		Net:     devices.NewNetBackend(udev),
		Console: devices.NewConsoleBackend(),
		NineP:   devices.NewNinePBackend(fs),
		Vbd:     devices.NewVbdBackend(make([]byte, 1<<16)),
		Udev:    udev,
	}
	bond := netsim.NewBond("bond0")
	host := netsim.NewHost(netsim.MAC{0xaa}, netsim.IP{10, 0, 0, 1})
	sw := &toolstack.BondSwitch{Bond: bond, Uplink: host}
	xl := toolstack.New(hyp, store, be, sw)
	xl.SkipNameCheck = true
	d := New(hyp, store, xl, sw, opts)

	reg := fault.NewRegistry()
	hyp.SetFaults(reg)
	store.SetFaults(reg)
	xl.SetFaults(reg)
	be.Net.SetFaults(reg)
	be.Console.SetFaults(reg)
	be.NineP.SetFaults(reg)
	be.Vbd.SetFaults(reg)

	return &faultRig{hv: hyp, store: store, xl: xl, d: d, bond: bond, faults: reg}
}

// bootParent boots a guest with one device of every kind, so each device
// fault point is exercised by a clone.
func (r *faultRig) bootParent(t testing.TB) *toolstack.Record {
	t.Helper()
	rec, err := r.xl.Create(toolstack.DomainConfig{
		Name:      "parent",
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 64,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
		NinePFS:   []toolstack.NinePConfig{{Export: "/export", Tag: "root"}},
		Vbds:      []toolstack.VbdConfig{{}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// worldState is everything a failed clone must leave untouched: the full
// Xenstore tree, the hypervisor domain list and memory, the toolstack
// registry and the device backends.
type worldState struct {
	store      map[string]string
	domains    []hv.DomID
	freeBytes  uint64
	xlCount    int
	dom0Mem    uint64
	vifs       int
	vbds       int
	ninepProcs int
	bondSlaves int
}

func (r *faultRig) snapshot(t *testing.T) *worldState {
	t.Helper()
	w := &worldState{
		store:      make(map[string]string),
		domains:    r.hv.Domains(),
		freeBytes:  r.hv.FreeBytes(),
		xlCount:    r.xl.Count(),
		dom0Mem:    r.xl.Dom0MemUsed(),
		vifs:       r.xl.Backends.Net.Count(),
		vbds:       r.xl.Backends.Vbd.Count(),
		ninepProcs: r.xl.Backends.NineP.ProcessCount(),
		bondSlaves: r.bond.Slaves(),
	}
	sort.Slice(w.domains, func(i, j int) bool { return w.domains[i] < w.domains[j] })
	if err := r.store.Walk("/", func(path, value string) {
		w.store[path] = value
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// assertSame fails the test for any divergence between two snapshots, with
// a per-path diff for the store.
func assertSame(t *testing.T, pre, post *worldState) {
	t.Helper()
	for p, v := range pre.store {
		pv, ok := post.store[p]
		if !ok {
			t.Errorf("store node %q lost during failed clone", p)
		} else if pv != v {
			t.Errorf("store node %q changed: %q -> %q", p, v, pv)
		}
	}
	for p, v := range post.store {
		if _, ok := pre.store[p]; !ok {
			t.Errorf("store residue after rollback: %q = %q", p, v)
		}
	}
	if fmt.Sprint(pre.domains) != fmt.Sprint(post.domains) {
		t.Errorf("domain list changed: %v -> %v", pre.domains, post.domains)
	}
	if pre.freeBytes != post.freeBytes {
		t.Errorf("free memory leaked: %d -> %d (delta %d)",
			pre.freeBytes, post.freeBytes, int64(post.freeBytes)-int64(pre.freeBytes))
	}
	if pre.xlCount != post.xlCount {
		t.Errorf("toolstack record leaked: %d -> %d", pre.xlCount, post.xlCount)
	}
	if pre.dom0Mem != post.dom0Mem {
		t.Errorf("dom0 memory accounting off: %d -> %d", pre.dom0Mem, post.dom0Mem)
	}
	if pre.vifs != post.vifs {
		t.Errorf("vif leaked: %d -> %d", pre.vifs, post.vifs)
	}
	if pre.vbds != post.vbds {
		t.Errorf("vbd leaked: %d -> %d", pre.vbds, post.vbds)
	}
	if pre.ninepProcs != post.ninepProcs {
		t.Errorf("9pfs process leaked: %d -> %d", pre.ninepProcs, post.ninepProcs)
	}
	if pre.bondSlaves != post.bondSlaves {
		t.Errorf("bond slave leaked: %d -> %d", pre.bondSlaves, post.bondSlaves)
	}
}

// waitDone asserts the parent's completion channel closes: a deadlocked
// parent is exactly the failure mode the abort protocol exists to prevent.
func waitDone(t *testing.T, done <-chan struct{}) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("parent never unblocked (completion wait leaked)")
	}
}

// assertChildGone asserts a failed child left nothing behind anywhere.
func (r *faultRig) assertChildGone(t *testing.T, child hv.DomID) {
	t.Helper()
	c := uint32(child)
	if _, err := r.hv.Domain(child); err == nil {
		t.Errorf("aborted child %d still exists in the hypervisor", child)
	}
	if _, err := r.xl.Record(child); err == nil {
		t.Errorf("aborted child %d still registered with the toolstack", child)
	}
	if r.store.Exists(fmt.Sprintf("/local/domain/%d", child), nil) {
		t.Errorf("aborted child %d left a Xenstore subtree", child)
	}
	for _, kind := range []string{"console", "vif", "9pfs", "vbd"} {
		if r.store.Exists(devices.BackendDir(c, kind), nil) {
			t.Errorf("aborted child %d left backend %s entries", child, kind)
		}
	}
	if r.xl.Backends.Console.Has(c) {
		t.Errorf("aborted child %d left a console", child)
	}
	if _, err := r.xl.Backends.Net.Vif(c, 0); err == nil {
		t.Errorf("aborted child %d left a vif", child)
	}
	if _, err := r.xl.Backends.Vbd.Vbd(c, 0); err == nil {
		t.Errorf("aborted child %d left a vbd", child)
	}
	if _, err := r.xl.Backends.NineP.Process(c); err == nil {
		t.Errorf("aborted child %d left a 9pfs registration", child)
	}
	if out, ok := r.hv.CloneOutcome(child); !ok || out != hv.OutcomeAborted {
		t.Errorf("outcome of %d = %v, %v; want Aborted", child, out, ok)
	}
}

// TestFaultMatrixFatal injects a fatal fault at every second-stage point
// and asserts the full rollback contract: the machine state is identical
// to the pre-clone snapshot, the parent unblocks, and the child is
// recorded as aborted.
func TestFaultMatrixFatal(t *testing.T) {
	for _, point := range fault.SecondStagePoints() {
		t.Run(point, func(t *testing.T) {
			r := newFaultRig(t, Options{})
			rec := r.bootParent(t)
			pre := r.snapshot(t)

			r.faults.Inject(point, fault.FailOnce(), fault.Fatal)
			kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			served, serveErr := r.d.Serve(obs.Ctx(vclock.NewMeter(nil)))
			if served != 0 {
				t.Fatalf("served = %d, want 0", served)
			}
			if serveErr == nil {
				t.Fatal("Serve reported success despite a fatal fault")
			}
			if !fault.IsFatal(serveErr) {
				t.Fatalf("error not classified as an injected fatal fault: %v", serveErr)
			}
			if p, ok := fault.PointOf(serveErr); !ok || p != point {
				t.Fatalf("error fired at %q, want %q", p, point)
			}
			waitDone(t, done)

			assertSame(t, pre, r.snapshot(t))
			r.assertChildGone(t, kids[0])
			if pd, _ := r.hv.Domain(rec.ID); pd.Paused() {
				t.Fatal("parent left paused after failed clone")
			}
			st := r.d.FailureStats()
			if st.Failures != 1 || st.Aborts != 1 || st.Rollbacks != 1 || st.Retries != 0 {
				t.Fatalf("stats = %+v, want 1 failure, 1 abort, 1 rollback, 0 retries", st)
			}

			// The pipeline is healthy afterwards: the same parent clones
			// successfully once the fault is cleared.
			r.faults.Clear(point)
			kids2, _, done2, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); err != nil || n != 1 {
				t.Fatalf("post-fault clone: served %d, err %v", n, err)
			}
			waitDone(t, done2)
			if out, _ := r.hv.CloneOutcome(kids2[0]); out != hv.OutcomeCompleted {
				t.Fatalf("post-fault clone outcome = %v", out)
			}
		})
	}
}

// TestFaultMatrixTransientRecovers injects a transient fault at every
// second-stage point: one retry must heal it and the clone completes.
func TestFaultMatrixTransientRecovers(t *testing.T) {
	for _, point := range fault.SecondStagePoints() {
		t.Run(point, func(t *testing.T) {
			r := newFaultRig(t, Options{})
			rec := r.bootParent(t)

			r.faults.Inject(point, fault.FailOnce(), fault.Transient)
			kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			meter := vclock.NewMeter(nil)
			served, serveErr := r.d.Serve(obs.Ctx(meter))
			if serveErr != nil {
				t.Fatalf("transient fault not retried away: %v", serveErr)
			}
			if served != 1 {
				t.Fatalf("served = %d, want 1", served)
			}
			waitDone(t, done)

			child := kids[0]
			if out, _ := r.hv.CloneOutcome(child); out != hv.OutcomeCompleted {
				t.Fatalf("outcome = %v, want Completed", out)
			}
			st := r.d.FailureStats()
			if st.Retries != 1 || st.Rollbacks != 1 {
				t.Fatalf("stats = %+v, want 1 retry, 1 rollback", st)
			}
			if st.Failures != 0 || st.Aborts != 0 {
				t.Fatalf("stats = %+v, want no failures or aborts", st)
			}
			// The retried clone is complete: every device made it.
			c := uint32(child)
			if !r.xl.Backends.Console.Has(c) {
				t.Error("retried clone missing console")
			}
			if _, err := r.xl.Backends.Net.Vif(c, 0); err != nil {
				t.Error("retried clone missing vif")
			}
			if _, err := r.xl.Backends.Vbd.Vbd(c, 0); err != nil {
				t.Error("retried clone missing vbd")
			}
			if _, err := r.xl.Backends.NineP.Process(c); err != nil {
				t.Error("retried clone missing 9pfs")
			}
			if cd, _ := r.hv.Domain(child); cd.Paused() {
				t.Error("retried clone left paused")
			}
		})
	}
}

// TestFaultMatrixTransientExhausted injects an unhealing transient fault:
// the retry budget is consumed, then the clone is aborted exactly like a
// fatal one, leaving the machine spotless.
func TestFaultMatrixTransientExhausted(t *testing.T) {
	for _, point := range fault.SecondStagePoints() {
		t.Run(point, func(t *testing.T) {
			r := newFaultRig(t, Options{MaxRetries: 2})
			rec := r.bootParent(t)
			pre := r.snapshot(t)

			r.faults.Inject(point, fault.FailAlways(), fault.Transient)
			kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			served, serveErr := r.d.Serve(obs.Ctx(vclock.NewMeter(nil)))
			if served != 0 || serveErr == nil {
				t.Fatalf("served = %d, err = %v; want 0 and an error", served, serveErr)
			}
			waitDone(t, done)

			assertSame(t, pre, r.snapshot(t))
			r.assertChildGone(t, kids[0])
			st := r.d.FailureStats()
			// 1 initial attempt + 2 retries, each rolled back, then 1 abort.
			if st.Retries != 2 || st.Rollbacks != 3 || st.Failures != 1 || st.Aborts != 1 {
				t.Fatalf("stats = %+v, want 2 retries, 3 rollbacks, 1 failure, 1 abort", st)
			}
		})
	}
}

// TestTransientRetriesChargeBackoff asserts the retry path costs virtual
// time: a clone that needed a retry is slower than a clean one.
func TestTransientRetriesChargeBackoff(t *testing.T) {
	clean := newFaultRig(t, Options{})
	crec := clean.bootParent(t)
	cleanMeter := vclock.NewMeter(nil)
	kids, _, done, err := cloneN(clean.hv, crec.ID, crec.ID, 1, cleanMeter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clean.d.Serve(obs.Ctx(cleanMeter)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)
	if _, ok := clean.d.SecondStageDuration(kids[0]); !ok {
		t.Fatal("clean clone has no recorded second-stage duration")
	}

	faulty := newFaultRig(t, Options{})
	frec := faulty.bootParent(t)
	faulty.faults.Inject(fault.PointDevVbdClone, fault.FailOnce(), fault.Transient)
	fMeter := vclock.NewMeter(nil)
	fkids, _, fdone, err := cloneN(faulty.hv, frec.ID, frec.ID, 1, fMeter)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := faulty.d.Serve(obs.Ctx(fMeter)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, fdone)
	if _, ok := faulty.d.SecondStageDuration(fkids[0]); !ok {
		t.Fatal("retried clone has no recorded second-stage duration")
	}

	// The failed attempt, its rollback and the backoff all cost meter time
	// on top of what a clean clone pays. (The per-child second-stage
	// duration is not comparable: the successful retry attempt runs with a
	// warm parent-info cache, which the clean cold run does not have.)
	extra := fMeter.Elapsed() - cleanMeter.Elapsed()
	if extra < fMeter.Costs().CloneRetryBase {
		t.Fatalf("retried clone total (%v) exceeds clean total (%v) by %v, want at least the backoff base (%v)",
			fMeter.Elapsed(), cleanMeter.Elapsed(), extra, fMeter.Costs().CloneRetryBase)
	}
}

// TestFaultMatrixFirstStage injects faults inside the CLONEOP hypercall:
// the error surfaces from hv.Clone itself, the hypervisor unwinds the
// partial child, and no notification ever reaches the daemon.
func TestFaultMatrixFirstStage(t *testing.T) {
	for _, point := range fault.FirstStagePoints() {
		t.Run(point, func(t *testing.T) {
			r := newFaultRig(t, Options{})
			rec := r.bootParent(t)
			pre := r.snapshot(t)

			r.faults.Inject(point, fault.FailOnce(), fault.Fatal)
			kids, _, _, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
			if err == nil {
				t.Fatal("Clone succeeded despite a first-stage fault")
			}
			if p, ok := fault.PointOf(err); !ok || p != point {
				t.Fatalf("error fired at %q, want %q", p, point)
			}
			if len(kids) != 0 {
				t.Fatalf("children created despite the fault: %v", kids)
			}
			if r.hv.PendingNotifications() != 0 {
				t.Fatal("notification leaked from a failed first stage")
			}
			if pd, _ := r.hv.Domain(rec.ID); pd.Paused() {
				t.Fatal("parent left paused")
			}
			assertSame(t, pre, r.snapshot(t))

			// The fault was consumed; the next clone goes through both
			// stages (also proving the clone budget was refunded).
			kids2, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
			if err != nil {
				t.Fatalf("post-fault clone failed: %v", err)
			}
			if n, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); err != nil || n != 1 {
				t.Fatalf("post-fault second stage: served %d, err %v", n, err)
			}
			waitDone(t, done)
			if out, _ := r.hv.CloneOutcome(kids2[0]); out != hv.OutcomeCompleted {
				t.Fatalf("post-fault clone outcome = %v", out)
			}
		})
	}
}

// TestAcceptanceOneOfFourChildrenFails is the issue's acceptance scenario:
// during a 4-child clone a fatal fault kills one child's second stage at
// each possible point; the other three complete, the failed child is fully
// rolled back, and the parent resumes.
func TestAcceptanceOneOfFourChildrenFails(t *testing.T) {
	for _, point := range fault.SecondStagePoints() {
		t.Run(point, func(t *testing.T) {
			r := newFaultRig(t, Options{})
			rec := r.bootParent(t)
			preDomains := r.hv.DomainCount()

			// Every child's second stage hits each point at least once;
			// firing on the second hit fails child #2 only. (For the write
			// point — hit three times per child — the second write still
			// belongs to the first child, so the failure lands there; which
			// child dies is irrelevant to the contract.)
			r.faults.Inject(point, fault.FailNth(2), fault.Fatal)
			kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			served, serveErr := r.d.Serve(obs.Ctx(vclock.NewMeter(nil)))
			if served != 3 {
				t.Fatalf("served = %d, want 3", served)
			}
			if serveErr == nil {
				t.Fatal("Serve reported success with one failed child")
			}
			waitDone(t, done)
			if pd, _ := r.hv.Domain(rec.ID); pd.Paused() {
				t.Fatal("parent left paused")
			}

			var completed, aborted []hv.DomID
			for _, k := range kids {
				out, ok := r.hv.CloneOutcome(k)
				if !ok {
					t.Fatalf("child %d has no recorded outcome", k)
				}
				if out == hv.OutcomeAborted {
					aborted = append(aborted, k)
				} else {
					completed = append(completed, k)
				}
			}
			if len(completed) != 3 || len(aborted) != 1 {
				t.Fatalf("completed %v, aborted %v; want 3 and 1", completed, aborted)
			}
			r.assertChildGone(t, aborted[0])
			for _, k := range completed {
				c := uint32(k)
				if !r.xl.Backends.Console.Has(c) {
					t.Errorf("surviving child %d missing console", k)
				}
				if _, err := r.xl.Backends.Net.Vif(c, 0); err != nil {
					t.Errorf("surviving child %d missing vif", k)
				}
				if cd, _ := r.hv.Domain(k); cd == nil || cd.Paused() {
					t.Errorf("surviving child %d not running", k)
				}
			}
			if got := r.hv.DomainCount(); got != preDomains+3 {
				t.Fatalf("domain count = %d, want %d", got, preDomains+3)
			}
			st := r.d.FailureStats()
			if st.Failures != 1 || st.Aborts != 1 {
				t.Fatalf("stats = %+v, want exactly 1 failure and 1 abort", st)
			}
		})
	}
}

// TestServeAllCountsAcrossMixedBatch pins the Serve return-value fix:
// the served count reflects the successes even when other notifications in
// the same drain fail, and the error wraps every failed child.
func TestServeAllCountsAcrossMixedBatch(t *testing.T) {
	r := newFaultRig(t, Options{})
	rec := r.bootParent(t)

	// Two separate fatal faults kill two of five children.
	r.faults.Inject(fault.PointDevVifClone, fault.FailNth(2), fault.Fatal)
	r.faults.Inject(fault.PointDev9pfsClone, fault.FailNth(3), fault.Fatal)
	kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	served, serveErr := r.d.Serve(obs.Ctx(vclock.NewMeter(nil)))
	if served != 3 {
		t.Fatalf("served = %d, want 3", served)
	}
	if serveErr == nil {
		t.Fatal("no error for two failed children")
	}
	waitDone(t, done)

	aborted := 0
	for _, k := range kids {
		if out, _ := r.hv.CloneOutcome(k); out == hv.OutcomeAborted {
			aborted++
		}
	}
	if aborted != 2 {
		t.Fatalf("aborted = %d, want 2", aborted)
	}
	if st := r.d.FailureStats(); st.Failures != 2 || st.Aborts != 2 {
		t.Fatalf("stats = %+v, want 2 failures and 2 aborts", st)
	}
	// errors.Join preserves both injected faults.
	var fe *fault.Error
	if !errors.As(serveErr, &fe) {
		t.Fatalf("joined error lost the fault: %v", serveErr)
	}
}

// TestRollbackIsIdempotent runs rollback twice for the same failed child:
// the second pass must be a harmless no-op (every step tolerates absent
// state), which the daemon relies on when a retry fails again early.
func TestRollbackIsIdempotent(t *testing.T) {
	r := newFaultRig(t, Options{})
	rec := r.bootParent(t)
	pre := r.snapshot(t)

	r.faults.Inject(fault.PointDevVbdClone, fault.FailOnce(), fault.Fatal)
	kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, serveErr := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); serveErr == nil {
		t.Fatal("expected a failure")
	}
	waitDone(t, done)

	// Serve already rolled back; a second explicit pass changes nothing.
	r.d.rollback(hv.CloneNotification{Parent: rec.ID, Child: kids[0]}, obs.Ctx(vclock.NewMeter(nil)))
	assertSame(t, pre, r.snapshot(t))
}
