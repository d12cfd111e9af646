package hv

import (
	"errors"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// cloneChild makes one clone and returns its ID (second stage not run; the
// child stays paused with a pending completion).
func cloneChild(t *testing.T, h *Hypervisor, p *Domain) DomID {
	t.Helper()
	kids, _, _, err := cloneN(h, p.ID, p.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return kids[0]
}

func TestCloneOpResetUnknownChild(t *testing.T) {
	h, _ := cloneReady(t, 16, 4)
	if _, err := h.CloneReset(obs.OpCtx{}, DomID(999)); err == nil {
		t.Fatal("CloneReset accepted an unknown domain")
	}
}

func TestCloneOpResetNonCloneDomain(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	// The parent itself has no parent: resetting it must be rejected, not
	// treated as a no-op (it would silently skip the restore).
	if _, err := h.CloneReset(obs.OpCtx{}, p.ID); err == nil {
		t.Fatal("CloneReset accepted a domain that is not a clone")
	}
}

func TestCloneOpResetOrphanedClone(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	child := cloneChild(t, h, p)
	h.PopNotifications()
	if err := h.CloneCompletion(obs.OpCtx{}, child); err != nil {
		t.Fatal(err)
	}
	// Destroying the parent orphans the clone; reset has no memory image
	// to restore towards and must fail rather than corrupt the child.
	if err := h.DomainDestroy(obs.OpCtx{}, p.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.CloneReset(obs.OpCtx{}, child); err == nil {
		t.Fatal("CloneReset succeeded against a destroyed parent")
	}
}

func TestCloneOpCOWUnknownDomain(t *testing.T) {
	h, _ := cloneReady(t, 16, 4)
	if err := h.CloneCOW(obs.OpCtx{}, DomID(999), []mem.PFN{0}); err == nil {
		t.Fatal("CloneCOW accepted an unknown domain")
	}
}

func TestCloneOpCOWExhaustedMemory(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	child := cloneChild(t, h, p)
	h.PopNotifications()

	cd, err := h.Domain(child)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a family-shared page: breaking its COW needs a fresh frame.
	var target mem.PFN
	found := false
	for pfn := mem.PFN(0); int(pfn) < cd.Space().Pages(); pfn++ {
		if k, err := cd.Space().Kind(pfn); err == nil && k == mem.KindRegular {
			target = pfn
			found = true
			break
		}
	}
	if !found {
		t.Fatal("clone has no regular (COW-shared) pages")
	}

	// Exhaust machine memory, then force the COW break.
	if _, err := h.Memory.AllocN(obs.OpCtx{}, mem.DomID0, h.Memory.FreeFrames()); err != nil {
		t.Fatal(err)
	}
	if free := h.Memory.FreeFrames(); free != 0 {
		t.Fatalf("FreeFrames = %d after exhaustion", free)
	}
	if err := h.CloneCOW(obs.Ctx(vclock.NewMeter(nil)), child, []mem.PFN{target}); err == nil {
		t.Fatal("CloneCOW succeeded with no free memory")
	}
}

func TestCloneOpAbortUnknownChild(t *testing.T) {
	h, _ := cloneReady(t, 16, 4)
	err := h.CloneAbort(obs.OpCtx{}, DomID(999))
	if !errors.Is(err, ErrNoPendingClone) {
		t.Fatalf("err = %v, want ErrNoPendingClone", err)
	}
}

func TestCloneOpAbortIsTerminal(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	child := cloneChild(t, h, p)
	h.PopNotifications()

	if err := h.CloneAbort(obs.Ctx(vclock.NewMeter(nil)), child); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Domain(child); err == nil {
		t.Fatal("aborted child still exists")
	}
	if out, ok := h.CloneOutcome(child); !ok || out != OutcomeAborted {
		t.Fatalf("outcome = %v, %v; want Aborted", out, ok)
	}
	// A second abort (a daemon retrying after a reported error) must not
	// double-release anything.
	if err := h.CloneAbort(obs.OpCtx{}, child); !errors.Is(err, ErrNoPendingClone) {
		t.Fatalf("double abort err = %v, want ErrNoPendingClone", err)
	}
	// Completion after abort is equally stale.
	if err := h.CloneCompletion(obs.OpCtx{}, child); !errors.Is(err, ErrNoPendingClone) {
		t.Fatalf("completion after abort err = %v, want ErrNoPendingClone", err)
	}
}

func TestCloneOpAbortAfterCompletionIsRejected(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	child := cloneChild(t, h, p)
	h.PopNotifications()

	if err := h.CloneCompletion(obs.OpCtx{}, child); err != nil {
		t.Fatal(err)
	}
	if err := h.CloneAbort(obs.OpCtx{}, child); !errors.Is(err, ErrNoPendingClone) {
		t.Fatalf("abort after completion err = %v, want ErrNoPendingClone", err)
	}
	// The completed clone must survive the stale abort.
	if _, err := h.Domain(child); err != nil {
		t.Fatal("completed child destroyed by a stale abort")
	}
	if out, _ := h.CloneOutcome(child); out != OutcomeCompleted {
		t.Fatalf("outcome = %v, want Completed", out)
	}
}

func TestCloneOpAbortRefundsCloneBudget(t *testing.T) {
	h, p := cloneReady(t, 16, 1) // budget for exactly one live clone
	child := cloneChild(t, h, p)
	h.PopNotifications()

	// The budget is spent: a second clone is over the limit.
	if _, _, _, err := cloneN(h, p.ID, p.ID, 1, nil); !errors.Is(err, ErrCloneLimit) {
		t.Fatalf("second clone err = %v, want ErrCloneLimit", err)
	}
	if err := h.CloneAbort(obs.OpCtx{}, child); err != nil {
		t.Fatal(err)
	}
	// The abort refunded the slot; cloning works again.
	kids, _, _, err := cloneN(h, p.ID, p.ID, 1, nil)
	if err != nil {
		t.Fatalf("clone after abort failed: %v", err)
	}
	h.PopNotifications()
	if err := h.CloneCompletion(obs.OpCtx{}, kids[0]); err != nil {
		t.Fatal(err)
	}
}

func TestCloneOpAbortDropsQueuedNotification(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	child := cloneChild(t, h, p)

	if h.PendingNotifications() != 1 {
		t.Fatalf("pending = %d, want 1", h.PendingNotifications())
	}
	// Abort lands before the daemon drained the ring: the stale
	// notification must go with it, or the daemon would second-stage a
	// destroyed domain.
	if err := h.CloneAbort(obs.OpCtx{}, child); err != nil {
		t.Fatal(err)
	}
	if h.PendingNotifications() != 0 {
		t.Fatalf("pending = %d after abort, want 0", h.PendingNotifications())
	}
}
