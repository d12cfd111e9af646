package cloned

import (
	"testing"

	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/vclock"
)

// cloneLazy runs a full two-stage lazy clone on the rig: first stage with
// Mode CloneLazy, then the daemon's second stage. The child is live, with
// its deferred pages undrained, when this returns.
func (r *faultRig) cloneLazy(t *testing.T) (hv.DomID, <-chan struct{}, error) {
	t.Helper()
	rec, err := r.xl.Record(1)
	if err != nil {
		// The rig boots the parent as the first domain after dom0.
		t.Fatalf("no parent record: %v", err)
	}
	res := r.hv.Clone(hv.CloneRequest{
		Caller:   rec.ID,
		Target:   rec.ID,
		N:        1,
		CopyRing: true,
		Mode:     mem.CloneLazy,
		Ctx:      r.ctx(nil),
	})
	if res.Err != nil {
		t.Fatalf("lazy first stage: %v", res.Err)
	}
	_, serveErr := r.d.Serve(r.ctx(nil))
	return res.Children[0], res.Done, serveErr
}

// eagerBaseline runs clone → serve → destroy eagerly on a fresh identical
// rig and returns the resulting snapshot: the reference state a lazy clone
// destroyed at any point of its stream must also land on (the toolstack's
// destroy residue, if any, is mode-independent and cancels out of the
// comparison).
func eagerBaseline(t *testing.T) *worldState {
	t.Helper()
	r := newFaultRig(t, Options{})
	rec := r.bootParent(t)
	kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.d.Serve(r.ctx(nil)); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)
	if err := r.xl.Destroy(kids[0], nil); err != nil {
		t.Fatal(err)
	}
	return r.snapshot(t)
}

// TestLazyClonePipeline is the happy path: a lazy clone runs both stages,
// WaitStreamed drains it, every deferred page is accounted for, and after
// a full toolstack destroy the machine state is identical to what the same
// pipeline leaves behind in eager mode.
func TestLazyClonePipeline(t *testing.T) {
	base := eagerBaseline(t)
	r := newFaultRig(t, Options{})
	rec := r.bootParent(t)

	res := r.hv.Clone(hv.CloneRequest{
		Caller: rec.ID, Target: rec.ID, N: 1, CopyRing: true,
		Mode: mem.CloneLazy, Ctx: r.ctx(nil),
	})
	if res.Err != nil {
		t.Fatalf("lazy first stage: %v", res.Err)
	}
	if res.Stats.Memory.Deferred == 0 {
		t.Fatal("lazy clone deferred nothing")
	}
	if _, err := r.d.Serve(r.ctx(nil)); err != nil {
		t.Fatalf("second stage: %v", err)
	}
	waitDone(t, res.Done)

	kid := res.Children[0]
	m := vclock.NewMeter(nil)
	if err := r.hv.WaitStreamed(r.ctx(m), kid); err != nil {
		t.Fatalf("WaitStreamed: %v", err)
	}
	if m.Elapsed() == 0 {
		t.Fatal("WaitStreamed charged no stream time")
	}
	d, err := r.hv.Domain(kid)
	if err != nil {
		t.Fatal(err)
	}
	ss := d.Space().StreamStats()
	if ss.Remaining != 0 {
		t.Fatalf("stream incomplete: %+v", ss)
	}
	if ss.StreamedPages+ss.DemandPages != res.Stats.Memory.Deferred {
		t.Fatalf("materialized %d+%d pages, deferred %d",
			ss.StreamedPages, ss.DemandPages, res.Stats.Memory.Deferred)
	}

	if err := r.xl.Destroy(kid, nil); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	assertSame(t, base, r.snapshot(t))
}

// TestLazyFaultMatrixMidStream injects fatal faults at every lazy
// materialization point — first chunk, mid-walk chunk, and finalize — on a
// child whose two-stage clone already succeeded. The failure must surface
// through WaitStreamed naming the injected point, and destroying the
// degraded child (stream stopped, pledges outstanding) must land on the
// same machine state an eager clone's destroy leaves: no frames, store
// nodes or backend state beyond the mode-independent baseline.
func TestLazyFaultMatrixMidStream(t *testing.T) {
	cases := []struct {
		name    string
		point   string
		trigger fault.Trigger
	}{
		{"stream-extent/first", fault.PointMemStreamExtent, fault.FailOnce()},
		{"stream-extent/mid", fault.PointMemStreamExtent, fault.FailNth(3)},
		{"lazy-finalize", fault.PointMemLazyFinalize, fault.FailOnce()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := eagerBaseline(t)
			r := newFaultRig(t, Options{})
			r.bootParent(t)

			r.faults.Inject(tc.point, tc.trigger, fault.Fatal)
			kid, done, serveErr := r.cloneLazy(t)
			if serveErr != nil {
				t.Fatalf("second stage failed for a stream-side fault: %v", serveErr)
			}
			waitDone(t, done)

			werr := r.hv.WaitStreamed(r.ctx(nil), kid)
			if !fault.IsFatal(werr) {
				t.Fatalf("WaitStreamed = %v, want injected fatal fault", werr)
			}
			if p, ok := fault.PointOf(werr); !ok || p != tc.point {
				t.Fatalf("fault fired at %q, want %q", p, tc.point)
			}
			if tc.point == fault.PointMemStreamExtent {
				d, err := r.hv.Domain(kid)
				if err != nil {
					t.Fatal(err)
				}
				if ss := d.Space().StreamStats(); ss.Remaining == 0 {
					t.Fatal("stream-extent fault fired but nothing left unstreamed")
				}
			}

			r.faults.Clear(tc.point)
			if err := r.xl.Destroy(kid, nil); err != nil {
				t.Fatalf("destroy of degraded child: %v", err)
			}
			assertSame(t, base, r.snapshot(t))

			// The pipeline is healthy afterwards: the same parent clones
			// lazily again with the point disarmed.
			kid2, done2, serveErr2 := r.cloneLazy(t)
			if serveErr2 != nil {
				t.Fatalf("clone after recovery: %v", serveErr2)
			}
			waitDone(t, done2)
			if err := r.hv.WaitStreamed(r.ctx(nil), kid2); err != nil {
				t.Fatalf("stream after recovery: %v", err)
			}
		})
	}
}

// TestLazyAbortWithRunningStreamer injects a fatal second-stage fault into
// a LAZY clone: the daemon's rollback aborts a child none of whose
// deferred pages has been drained. Tearing the space down must cancel
// every outstanding pledge, leaving the machine exactly at the pre-clone
// snapshot.
func TestLazyAbortWithRunningStreamer(t *testing.T) {
	for _, point := range []string{fault.PointDevVifClone, fault.PointXSClone, fault.PointToolstackAdopt} {
		t.Run(point, func(t *testing.T) {
			r := newFaultRig(t, Options{})
			r.bootParent(t)
			pre := r.snapshot(t)

			r.faults.Inject(point, fault.FailOnce(), fault.Fatal)
			kid, done, serveErr := r.cloneLazy(t)
			if serveErr == nil {
				t.Fatal("second stage succeeded despite injected fatal fault")
			}
			if !fault.IsFatal(serveErr) {
				t.Fatalf("error not an injected fatal fault: %v", serveErr)
			}
			waitDone(t, done)

			assertSame(t, pre, r.snapshot(t))
			r.assertChildGone(t, kid)

			// Healthy after the abort: the next lazy clone of the same
			// parent completes both stages and streams to the end.
			r.faults.Clear(point)
			kid2, done2, serveErr2 := r.cloneLazy(t)
			if serveErr2 != nil {
				t.Fatalf("clone after abort: %v", serveErr2)
			}
			waitDone(t, done2)
			if err := r.hv.WaitStreamed(r.ctx(nil), kid2); err != nil {
				t.Fatalf("stream after abort: %v", err)
			}
		})
	}
}
