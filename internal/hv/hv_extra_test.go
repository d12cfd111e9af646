package hv

import (
	"nephele/internal/evtchn"
	"sync"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.MemoryBytes != 12<<30 {
		t.Fatalf("MemoryBytes = %d, want 12 GiB (the paper's split)", cfg.MemoryBytes)
	}
	h := New(cfg)
	if h.FreeBytes() != cfg.MemoryBytes {
		t.Fatalf("FreeBytes = %d", h.FreeBytes())
	}
}

func TestDomainsListing(t *testing.T) {
	h := newHV(t)
	d1, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	d2, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	ids := h.Domains()
	want := map[DomID]bool{mem.DomID0: true, d1.ID: true, d2.ID: true}
	if len(ids) != 3 {
		t.Fatalf("Domains = %v", ids)
	}
	for _, id := range ids {
		if !want[id] {
			t.Fatalf("unexpected domain %d in %v", id, ids)
		}
	}
}

func TestPendingNotifications(t *testing.T) {
	h := newHV(t)
	h.SetCloningEnabled(true)
	p, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	h.DomctlSetCloning(p.ID, true, 4)
	if h.PendingNotifications() != 0 {
		t.Fatal("notifications pending before any clone")
	}
	kids, _, _, err := cloneN(h, p.ID, p.ID, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if h.PendingNotifications() != 2 {
		t.Fatalf("pending = %d, want 2", h.PendingNotifications())
	}
	h.PopNotifications()
	if h.PendingNotifications() != 0 {
		t.Fatal("pop did not drain")
	}
	for _, k := range kids {
		h.CloneCompletion(obs.OpCtx{}, k, true)
	}
}

func TestCloneOpCOWErrors(t *testing.T) {
	h := newHV(t)
	if err := h.CloneCOW(obs.OpCtx{}, DomID(77), []mem.PFN{0}); err == nil {
		t.Fatal("clone_cow on unknown domain succeeded")
	}
	d, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	if err := h.CloneCOW(obs.OpCtx{}, d.ID, []mem.PFN{999}); err == nil {
		t.Fatal("clone_cow on bad pfn succeeded")
	}
}

func TestCloneOpCompletionUnknownChild(t *testing.T) {
	h := newHV(t)
	if err := h.CloneCompletion(obs.OpCtx{}, DomID(123), true); err == nil {
		t.Fatal("completion for unknown child succeeded")
	}
}

func TestConcurrentCloneOpsSerializePerParent(t *testing.T) {
	// Multiple goroutines racing Clone + completion on the same
	// parent must stay consistent (the ring and family lists are
	// shared).
	cfg := testConfig()
	cfg.MemoryBytes = 1 << 30
	cfg.NotifyRingSlots = 64
	h := New(cfg)
	h.SetCloningEnabled(true)
	p, _ := h.DomainCreate(obs.OpCtx{}, 64, 1)
	h.DomctlSetCloning(p.ID, true, 64)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				kids, _, done, err := cloneN(h, p.ID, p.ID, 1, vclock.NewMeter(nil))
				if err != nil {
					errs <- err
					return
				}
				// Serve completions for whatever is pending (any
				// goroutine may complete any child, like a shared
				// daemon).
				for _, n := range h.PopNotifications() {
					h.CloneCompletion(obs.OpCtx{}, n.Child, true)
				}
				_ = kids
				<-done
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := len(p.Children()); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
	if p.Paused() {
		t.Fatal("parent left paused")
	}
}

func TestSetEventHandler(t *testing.T) {
	h := newHV(t)
	d, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	fired := make(chan evtchn.Port, 1)
	if err := h.SetEventHandler(d.ID, func(p evtchn.Port) { fired <- p }); err != nil {
		t.Fatal(err)
	}
	// An event arriving afterwards reaches the installed handler.
	up, err := h.Events.AllocUnbound(d.ID, mem.DomID0)
	if err != nil {
		t.Fatal(err)
	}
	bp, err := h.Events.BindInterdomain(mem.DomID0, d.ID, up)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Events.Send(mem.DomID0, bp); err != nil {
		t.Fatal(err)
	}
	select {
	case p := <-fired:
		if p != up {
			t.Fatalf("handler got port %d, want %d", p, up)
		}
	default:
		t.Fatal("handler not invoked")
	}
	if err := h.SetEventHandler(DomID(99), nil); err == nil {
		t.Fatal("SetEventHandler on unknown domain succeeded")
	}
}
