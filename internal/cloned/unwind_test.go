package cloned

import (
	"errors"
	"strings"
	"testing"

	"nephele/internal/devices"
	"nephele/internal/hv"
	"nephele/internal/toolstack"
	"nephele/internal/xenstore"
)

// The second stage's error returns that no fault point reaches: a store
// read, a deep-copy snapshot and a completion hypercall that fail on their
// own, and an abort that fails after them. Each unwind must give the store
// and the pool back everything the request took and resume the parent.

// counts is the store's node count and the pool's free frames.
func (r *faultRig) counts() [2]int {
	return [2]int{r.store.NodeCount(), r.hv.Memory.FreeFrames()}
}

// failOneClone clones rec once, serves the notification and returns the
// second stage's error, after checking that it failed and unwound.
func (r *faultRig) failOneClone(t *testing.T, rec *toolstack.Record) error {
	t.Helper()
	pre := r.counts()
	kids, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	served, serveErr := r.d.Serve(r.ctx(nil))
	if served != 0 || serveErr == nil {
		t.Fatalf("Serve = %d, %v; want 0 and an error", served, serveErr)
	}
	waitDone(t, done)
	r.assertUnwound(t, rec.ID, kids[0], pre)
	return serveErr
}

// assertUnwound checks what one failed second stage must leave: the child
// gone, the counts back to pre, the parent running and one failure, one
// rollback and one abort on the daemon's record.
func (r *faultRig) assertUnwound(t *testing.T, parent, child hv.DomID, pre [2]int) {
	t.Helper()
	r.assertChildGone(t, child)
	if post := r.counts(); post != pre {
		t.Fatalf("store nodes, free frames = %v after the unwind, want %v", post, pre)
	}
	if pd, _ := r.hv.Domain(parent); pd.Paused() {
		t.Fatal("parent left paused")
	}
	if st := r.d.FailureStats(); st != (FailureStats{Failures: 1, Rollbacks: 1, Aborts: 1}) {
		t.Fatalf("stats = %+v, want 1 failure, 1 rollback, 1 abort", st)
	}
}

// TestServeParentInfoReadFails: a parent whose name key is gone fails the
// second stage at parentInfo's first read.
func TestServeParentInfoReadFails(t *testing.T) {
	r := newFaultRig(t, Options{})
	rec := r.bootParent(t)
	if err := r.store.Remove(devices.DomainPath(uint32(rec.ID))+"/name", nil); err != nil {
		t.Fatal(err)
	}
	if err := r.failOneClone(t, rec); !errors.Is(err, xenstore.ErrNotFound) {
		t.Fatalf("error %v, want xenstore.ErrNotFound", err)
	}
}

// TestServeDeepCopySnapshotFails: under the deep-copy ablation, a parent
// whose vif backend directory is gone fails at that directory's snapshot,
// after the kinds before it and the vif frontend directory were copied.
func TestServeDeepCopySnapshotFails(t *testing.T) {
	r := newFaultRig(t, Options{UseDeepCopy: true})
	rec := r.bootParent(t)
	if err := r.store.Remove(devices.BackendDir(uint32(rec.ID), "vif"), nil); err != nil {
		t.Fatal(err)
	}
	if err := r.failOneClone(t, rec); !errors.Is(err, xenstore.ErrNotFound) {
		t.Fatalf("error %v, want xenstore.ErrNotFound", err)
	}
}

// TestServeCompletionAndAbortFail: a notification whose child was aborted
// after the daemon popped it runs the whole second stage, then fails at
// CloneCompletion and again at the daemon's own CloneAbort, as there is no
// pending clone left. The rollback still removes every store node the
// second stage wrote.
func TestServeCompletionAndAbortFail(t *testing.T) {
	r := newFaultRig(t, Options{})
	rec := r.bootParent(t)
	pre := r.counts()
	_, _, done, err := cloneN(r.hv, rec.ID, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ns := r.hv.PopNotifications()
	if len(ns) != 1 {
		t.Fatalf("popped %d notifications, want 1", len(ns))
	}
	if err := r.hv.CloneAbort(r.ctx(nil), ns[0].Child); err != nil {
		t.Fatal(err)
	}
	waitDone(t, done)

	err = r.d.serveOneIsolated(r.ctx(nil), ns[0])
	if !errors.Is(err, hv.ErrNoPendingClone) || !strings.Contains(err.Error(), "cloned: abort of") {
		t.Fatalf("error %v, want a failed completion joined with a failed abort", err)
	}
	completions := 0
	for _, s := range r.trace.Spans() {
		if s.Name == "clone-completion" {
			completions++
		}
	}
	if completions != 1 {
		t.Fatalf("%d clone-completion spans, want 1", completions)
	}
	r.assertUnwound(t, rec.ID, ns[0].Child, pre)
}
