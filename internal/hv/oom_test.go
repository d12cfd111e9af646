package hv

import (
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
)

func TestCloneOOMUnwindsCleanly(t *testing.T) {
	// Machine with room for the parent but not a full clone's private
	// allocations.
	cfg := testConfig()
	cfg.MemoryBytes = 6 << 20 // 1536 frames
	h := New(cfg)
	h.SetCloningEnabled(true)
	p, err := h.DomainCreate(obs.OpCtx{}, 1024, 1) // ~1040 frames used
	if err != nil {
		t.Fatal(err)
	}
	h.DomctlSetCloning(p.ID, true, 10)
	// Make most pages private so the clone needs copies it cannot get.
	for i := 0; i < 600; i++ {
		p.Space().SetKind(mem.PFN(i), mem.KindIORing)
	}
	_, _, _, err = cloneN(h, p.ID, p.ID, 1, nil)
	if err == nil {
		t.Fatal("clone succeeded despite OOM")
	}
	// Invariants after the failed clone:
	if p.Paused() {
		t.Fatal("parent left paused after failed clone")
	}
	if len(p.Children()) != 0 {
		t.Fatalf("failed clone left %d children registered", len(p.Children()))
	}
	if h.DomainCount() != 2 { // dom0 + parent
		t.Fatalf("DomainCount = %d after failed clone", h.DomainCount())
	}
	if h.PendingNotifications() != 0 {
		t.Fatal("failed clone left a notification queued")
	}
	// The parent still works and can clone once memory frees up.
	if err := p.Space().Write(700, 0, []byte("alive"), nil); err != nil {
		t.Fatal(err)
	}
}
