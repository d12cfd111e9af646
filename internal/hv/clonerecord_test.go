package hv

import (
	"runtime"
	"testing"

	"nephele/internal/fault"
	"nephele/internal/obs"
)

// isClosed reports whether a Done channel has been closed.
func isClosed(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// TestCloneRecordResumesParentAtLastReport: the parent of a 2-child request
// stays paused after the first completion and resumes, with Done closed, at
// the second child's abort.
func TestCloneRecordResumesParentAtLastReport(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	kids, _, done, err := cloneN(h, p.ID, p.ID, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.PopNotifications()
	if err := h.CloneCompletion(obs.OpCtx{}, kids[0]); err != nil {
		t.Fatal(err)
	}
	if !p.Paused() || isClosed(done) {
		t.Fatalf("after one of two reports: parent paused %t, Done closed %t", p.Paused(), isClosed(done))
	}
	if err := h.CloneAbort(obs.OpCtx{}, kids[1]); err != nil {
		t.Fatal(err)
	}
	if p.Paused() || !isClosed(done) {
		t.Fatalf("after the last report: parent paused %t, Done closed %t", p.Paused(), isClosed(done))
	}
}

// TestCloneRecordFailedRequestResumesOnce: a request failing at child 2 of
// 3 resumes its parent at once, and child 1's later completion neither
// closes anything twice nor resumes a parent paused separately since (as
// cluster.Migrate pauses it).
func TestCloneRecordFailedRequestResumesOnce(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	r := fault.NewRegistry()
	r.Inject(fault.PointHVCloneOne, fault.FailNth(2), fault.Fatal)
	h.SetFaults(r)
	kids, _, _, err := cloneN(h, p.ID, p.ID, 3, nil)
	if !fault.IsFatal(err) || len(kids) != 1 {
		t.Fatalf("clone = %v, %v; want one child and a fatal fault", kids, err)
	}
	if p.Paused() {
		t.Fatal("failed request left its parent paused")
	}
	if err := h.Pause(p.ID); err != nil {
		t.Fatal(err)
	}
	h.PopNotifications()
	if err := h.CloneCompletion(obs.OpCtx{}, kids[0]); err != nil {
		t.Fatal(err)
	}
	if !p.Paused() {
		t.Fatal("a failed request's late completion resumed a separately paused parent")
	}
}

// TestCloneRecordStartsNoGoroutine: a synchronous eager clone runs wholly
// on its caller's goroutine; nothing is left waiting for the children.
func TestCloneRecordStartsNoGoroutine(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	before := runtime.NumGoroutine()
	kids, _, done, err := cloneN(h, p.ID, p.ID, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got != before {
		t.Fatalf("goroutines %d → %d across Clone", before, got)
	}
	h.PopNotifications()
	for _, k := range kids {
		h.CloneCompletion(obs.OpCtx{}, k)
	}
	<-done
}

// TestCloneOutcomesDropOnDestroy: destroying a completed child drops its
// outcome, so clone+destroy cycles leave the table's size unchanged, while
// an aborted child (which the abort itself destroys) keeps reading
// OutcomeAborted.
func TestCloneOutcomesDropOnDestroy(t *testing.T) {
	h, p := cloneReady(t, 16, 16)
	for i := 0; i < 8; i++ {
		child := cloneChild(t, h, p)
		h.PopNotifications()
		h.CloneCompletion(obs.OpCtx{}, child)
		if err := h.DomainDestroy(obs.OpCtx{}, child); err != nil {
			t.Fatal(err)
		}
		if len(h.outcomes) != 0 {
			t.Fatalf("cycle %d: %d outcomes kept", i, len(h.outcomes))
		}
	}
	child := cloneChild(t, h, p)
	h.PopNotifications()
	h.CloneAbort(obs.OpCtx{}, child)
	if out, ok := h.CloneOutcome(child); !ok || out != OutcomeAborted {
		t.Fatalf("aborted child outcome = %v, %t; want aborted", out, ok)
	}
}
