package hv

import (
	"math/rand"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// TestDefaultConfig checks the machine's fixed sizing: all of memoryBytes
// is free at boot, and every domain costs its pages, page tables and p2m
// plus the per-domain overhead frames.
func TestDefaultConfig(t *testing.T) {
	h := New(12 << 30)
	if h.FreeBytes() != 12<<30 {
		t.Fatalf("FreeBytes = %d, want 12 GiB (the paper's split)", h.FreeBytes())
	}
	free := h.Memory.FreeFrames()
	if _, err := h.DomainCreate(obs.OpCtx{}, 1024, 1); err != nil {
		t.Fatal(err)
	}
	space := 1024 + mem.PTFrameCount(1024) + mem.P2MFrameCount(1024)
	if got := free - h.Memory.FreeFrames() - space; got != perDomainOverheadFrames {
		t.Fatalf("domain overhead = %d frames, want %d", got, perDomainOverheadFrames)
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
		h.CloneCompletion(obs.OpCtx{}, k)
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
	if err := h.CloneCompletion(obs.OpCtx{}, DomID(123)); err == nil {
		t.Fatal("completion for unknown child succeeded")
	}
}

// TestConcurrentCloneOpsSerializePerParent keeps several clone requests of
// one parent outstanding at once: a seeded schedule interleaves requests
// with completions of whatever is pending, in any order across requests,
// like a shared daemon. Every request's completion record must release,
// the family list hold every child, and the parent run again at the end.
func TestConcurrentCloneOpsSerializePerParent(t *testing.T) {
	h := New(1 << 30)
	h.SetCloningEnabled(true)
	p, _ := h.DomainCreate(obs.OpCtx{}, 64, 1)
	h.DomctlSetCloning(p.ID, true, 64)

	rng := rand.New(rand.NewSource(5))
	var dones []<-chan struct{}
	for len(dones) < 16 {
		if rng.Intn(3) == 0 {
			ns := h.PopNotifications()
			rng.Shuffle(len(ns), func(i, j int) { ns[i], ns[j] = ns[j], ns[i] })
			for _, n := range ns {
				if err := h.CloneCompletion(obs.OpCtx{}, n.Child); err != nil {
					t.Fatal(err)
				}
			}
			continue
		}
		_, _, done, err := cloneN(h, p.ID, p.ID, 1, vclock.NewMeter(nil))
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	for _, n := range h.PopNotifications() {
		if err := h.CloneCompletion(obs.OpCtx{}, n.Child); err != nil {
			t.Fatal(err)
		}
	}
	for i, done := range dones {
		select {
		case <-done:
		default:
			t.Fatalf("request %d: completion record never released", i)
		}
	}
	if got := len(p.Children()); got != 16 {
		t.Fatalf("children = %d, want 16", got)
	}
	if p.Paused() {
		t.Fatal("parent left paused")
	}
}
