package hv

import (
	"errors"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// cloneN issues one CLONEOP for n children (copying the I/O ring, as every
// caller in the tree does) and unpacks the result.
func cloneN(h *Hypervisor, caller, target DomID, n int, meter *vclock.Meter) ([]DomID, *CloneOpStats, <-chan struct{}, error) {
	r := h.Clone(CloneRequest{Caller: caller, Target: target, N: n, CopyRing: true, Ctx: obs.Ctx(meter)})
	return r.Children, r.Stats, r.Done, r.Err
}

// cloneReady creates a hypervisor with cloning enabled and a parent domain
// configured for maxClones.
func cloneReady(t *testing.T, pages, maxClones int) (*Hypervisor, *Domain) {
	t.Helper()
	h := newHV(t)
	h.SetCloningEnabled(true)
	p, err := h.DomainCreate(obs.OpCtx{}, pages, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DomctlSetCloning(p.ID, true, maxClones); err != nil {
		t.Fatal(err)
	}
	return h, p
}

func TestCloneDisabledGlobally(t *testing.T) {
	h := newHV(t)
	p, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	h.DomctlSetCloning(p.ID, true, 4)
	if _, _, _, err := cloneN(h, p.ID, p.ID, 1, nil); !errors.Is(err, ErrCloningDisabled) {
		t.Fatalf("clone with global disable: %v", err)
	}
}

func TestCloneDisabledPerDomain(t *testing.T) {
	h := newHV(t)
	h.SetCloningEnabled(true)
	p, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	if _, _, _, err := cloneN(h, p.ID, p.ID, 1, nil); !errors.Is(err, ErrCloningDisabled) {
		t.Fatalf("clone without domctl enable: %v", err)
	}
}

func TestCloneLimit(t *testing.T) {
	h, p := cloneReady(t, 16, 2)
	kids, _, _, err := cloneN(h, p.ID, p.ID, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kids {
		h.CloneCompletion(obs.OpCtx{}, k, true)
	}
	if _, _, _, err := cloneN(h, p.ID, p.ID, 1, nil); !errors.Is(err, ErrCloneLimit) {
		t.Fatalf("clone beyond limit: %v", err)
	}
}

func TestCloneByThirdPartyRefused(t *testing.T) {
	h, p := cloneReady(t, 16, 2)
	other, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	if _, _, _, err := cloneN(h, other.ID, p.ID, 1, nil); err == nil {
		t.Fatal("third-party clone allowed")
	}
}

func TestCloneFromDom0(t *testing.T) {
	// Dom0 may clone any configured domain (the VM-fuzzing path, §5.1).
	h, p := cloneReady(t, 16, 2)
	kids, _, _, err := cloneN(h, mem.DomID0, p.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.CloneCompletion(obs.OpCtx{}, kids[0], true)
}

func TestCloneVCPURAXSemantics(t *testing.T) {
	h, p := cloneReady(t, 16, 2)
	pv, _ := p.VCPU(0)
	pv.Regs.RIP = 0x1234
	kids, _, _, err := cloneN(h, p.ID, p.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.CloneCompletion(obs.OpCtx{}, kids[0], true)
	c, _ := h.Domain(kids[0])
	cv, _ := c.VCPU(0)
	if cv.Regs.RAX != 1 {
		t.Fatalf("child RAX = %d, want 1", cv.Regs.RAX)
	}
	if pv.Regs.RAX != 0 {
		t.Fatalf("parent RAX = %d, want 0", pv.Regs.RAX)
	}
	if cv.Regs.RIP != 0x1234 {
		t.Fatalf("child RIP = %#x, want parent's", cv.Regs.RIP)
	}
}

func TestCloneMemorySharing(t *testing.T) {
	h, p := cloneReady(t, 64, 2)
	p.Space().Write(0, 0, []byte("family data"), nil)
	kids, st, _, err := cloneN(h, p.ID, p.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.CloneCompletion(obs.OpCtx{}, kids[0], true)
	if st.Memory.SharedPages == 0 {
		t.Fatal("no pages shared")
	}
	c, _ := h.Domain(kids[0])
	buf := make([]byte, 11)
	c.Space().Read(0, 0, buf)
	if string(buf) != "family data" {
		t.Fatalf("child read %q", buf)
	}
	// Isolation after write.
	c.Space().Write(0, 0, []byte("child wrote"), nil)
	p.Space().Read(0, 0, buf)
	if string(buf) != "family data" {
		t.Fatalf("parent sees child write: %q", buf)
	}
}

func TestCloneWaitsForCompletion(t *testing.T) {
	h, p := cloneReady(t, 16, 1)
	kids, _, done, err := cloneN(h, p.ID, p.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Blocking on done must not succeed before completion; drain the
	// notification like xencloned would.
	var note CloneNotification
	for {
		if notes := h.PopNotifications(); len(notes) == 1 {
			note = notes[0]
			break
		}
	}
	select {
	case <-done:
		t.Fatal("done channel closed before clone_completion")
	default:
	}
	if !p.Paused() {
		t.Fatal("parent not paused during second stage")
	}
	if err := h.CloneCompletion(obs.OpCtx{}, note.Child, true); err != nil {
		t.Fatal(err)
	}
	<-done
	if kids[0] != note.Child {
		t.Fatalf("returned child %d, notification child %d", kids[0], note.Child)
	}
	if p.Paused() {
		t.Fatal("parent still paused after completion")
	}
	c, _ := h.Domain(note.Child)
	if c.Paused() {
		t.Fatal("child not resumed by completion")
	}
}

func TestCloneCompletionCanLeaveChildPaused(t *testing.T) {
	h, p := cloneReady(t, 16, 1)
	kids, _, _, err := cloneN(h, p.ID, p.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.PopNotifications()
	if err := h.CloneCompletion(obs.OpCtx{}, kids[0], false); err != nil {
		t.Fatal(err)
	}
	c, _ := h.Domain(kids[0])
	if !c.Paused() {
		t.Fatal("child resumed despite resumeChild=false")
	}
}

func TestCloneNotificationContents(t *testing.T) {
	h, p := cloneReady(t, 16, 1)
	kids, _, _, _ := cloneN(h, p.ID, p.ID, 1, nil)
	notes := h.PopNotifications()
	if len(notes) != 1 {
		t.Fatalf("notifications = %d", len(notes))
	}
	n := notes[0]
	if n.Parent != p.ID || n.Child != kids[0] {
		t.Fatalf("notification = %+v", n)
	}
	psi, _ := p.Space().MFNOf(p.StartInfoPFN)
	if n.ParentSIFrame != psi {
		t.Fatal("parent start_info frame wrong in notification")
	}
	if n.ChildSIFrame == psi {
		t.Fatal("child start_info frame equals parent's (must be private)")
	}
	h.CloneCompletion(obs.OpCtx{}, kids[0], true)
}

func TestNotificationRingBackpressure(t *testing.T) {
	cfg := testConfig()
	cfg.NotifyRingSlots = 1
	h := New(cfg)
	h.SetCloningEnabled(true)
	p, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	h.DomctlSetCloning(p.ID, true, 10)
	// First clone fills the only slot; a second clone (without draining)
	// must fail with ErrRingFull — the backpressure of §5.
	if _, _, _, err := cloneN(h, p.ID, p.ID, 2, nil); !errors.Is(err, ErrRingFull) {
		t.Fatalf("clone with full ring: %v, want ErrRingFull", err)
	}
}

func TestCloneFirstStageTimeAt4MB(t *testing.T) {
	// §6.1: the first stage takes about 1 ms for a 4 MB guest.
	h, p := cloneReady(t, 1024, 1)
	meter := vclock.NewMeter(nil)
	_, st, _, err := cloneN(h, p.ID, p.ID, 1, meter)
	if err != nil {
		t.Fatal(err)
	}
	ms := st.FirstStage.Seconds() * 1e3
	if ms < 0.1 || ms > 3.0 {
		t.Fatalf("first stage at 4 MB = %.2f ms, want ~1 ms", ms)
	}
}

func TestCloneOpCOWBreaksSharing(t *testing.T) {
	h, p := cloneReady(t, 16, 1)
	kids, _, _, _ := cloneN(h, p.ID, p.ID, 1, nil)
	h.PopNotifications()
	h.CloneCompletion(obs.OpCtx{}, kids[0], true)
	c, _ := h.Domain(kids[0])
	before, _ := c.Space().MFNOf(3)
	if err := h.CloneCOW(obs.OpCtx{}, kids[0], []mem.PFN{3}); err != nil {
		t.Fatal(err)
	}
	after, _ := c.Space().MFNOf(3)
	if before == after {
		t.Fatal("clone_cow did not privatize the page")
	}
}

func TestCloneOpReset(t *testing.T) {
	h, p := cloneReady(t, 16, 1)
	p.Space().Write(2, 0, []byte("parent"), nil)
	kids, _, _, _ := cloneN(h, p.ID, p.ID, 1, nil)
	h.PopNotifications()
	h.CloneCompletion(obs.OpCtx{}, kids[0], true)
	c, _ := h.Domain(kids[0])

	// Dirty three pages in the child.
	for _, pfn := range []mem.PFN{1, 2, 3} {
		c.Space().Write(pfn, 0, []byte("dirty"), nil)
	}
	meter := vclock.NewMeter(nil)
	restored, err := h.CloneReset(obs.Ctx(meter), kids[0])
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 {
		t.Fatalf("restored = %d, want 3", restored)
	}
	// The child sees the parent's content again.
	buf := make([]byte, 6)
	c.Space().Read(2, 0, buf)
	if string(buf) != "parent" {
		t.Fatalf("after reset child reads %q", buf)
	}
	if meter.Elapsed() < 3*meter.Costs().CloneResetPage {
		t.Fatal("reset pages not charged")
	}
	// Reset is idempotent.
	restored, err = h.CloneReset(obs.OpCtx{}, kids[0])
	if err != nil {
		t.Fatal(err)
	}
	if restored != 0 {
		t.Fatalf("second reset restored %d pages, want 0", restored)
	}
}

func TestCloneOpResetAfterParentFault(t *testing.T) {
	// If the parent faulted a page after cloning, reset must re-share
	// the parent's *current* frame.
	h, p := cloneReady(t, 16, 1)
	kids, _, _, _ := cloneN(h, p.ID, p.ID, 1, nil)
	h.PopNotifications()
	h.CloneCompletion(obs.OpCtx{}, kids[0], true)
	c, _ := h.Domain(kids[0])

	p.Space().Write(4, 0, []byte("new parent state"), nil)
	c.Space().Write(4, 0, []byte("child dirt"), nil)
	if _, err := h.CloneReset(obs.OpCtx{}, kids[0]); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	c.Space().Read(4, 0, buf)
	if string(buf) != "new parent state" {
		t.Fatalf("after reset child reads %q", buf)
	}
	// And isolation still holds for the next iteration.
	c.Space().Write(4, 0, []byte("again"), nil)
	p.Space().Read(4, 0, buf)
	if string(buf) != "new parent state" {
		t.Fatalf("parent corrupted: %q", buf)
	}
}

func TestCloneOpResetNonCloneFails(t *testing.T) {
	h, p := cloneReady(t, 16, 1)
	if _, err := h.CloneReset(obs.OpCtx{}, p.ID); err == nil {
		t.Fatal("reset of a non-clone succeeded")
	}
}

func TestDestroyCloneReleasesSharedMemory(t *testing.T) {
	h, p := cloneReady(t, 64, 2)
	free0 := h.Memory.FreeFrames()
	kids, _, _, _ := cloneN(h, p.ID, p.ID, 2, nil)
	h.PopNotifications()
	for _, k := range kids {
		h.CloneCompletion(obs.OpCtx{}, k, true)
	}
	for _, k := range kids {
		if err := h.DomainDestroy(obs.OpCtx{}, k); err != nil {
			t.Fatal(err)
		}
	}
	// Parent still works: its shared pages must have survived.
	if err := p.Space().Write(0, 0, []byte("x"), nil); err != nil {
		t.Fatal(err)
	}
	if got := h.Memory.FreeFrames(); got < free0-10 {
		t.Fatalf("clone teardown leaked: free %d vs %d before", got, free0)
	}
	// Parent's children list is pruned.
	if n := len(p.Children()); n != 0 {
		t.Fatalf("parent still lists %d children", n)
	}
}
