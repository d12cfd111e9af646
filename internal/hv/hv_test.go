package hv

import (
	"errors"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func testConfig() Config {
	return Config{
		MemoryBytes:             256 << 20, // 256 MiB
		MaxEventPorts:           64,
		GrantEntries:            64,
		NotifyRingSlots:         16,
		PerDomainOverheadFrames: 4,
	}
}

func newHV(t *testing.T) *Hypervisor {
	t.Helper()
	return New(testConfig())
}

func TestNewHasDom0(t *testing.T) {
	h := newHV(t)
	if _, err := h.Domain(mem.DomID0); err != nil {
		t.Fatalf("Dom0 missing: %v", err)
	}
	if h.DomainCount() != 1 {
		t.Fatalf("DomainCount = %d, want 1", h.DomainCount())
	}
}

func TestCreateDestroyDomain(t *testing.T) {
	h := newHV(t)
	free0 := h.Memory.FreeFrames()
	meter := vclock.NewMeter(nil)
	d, err := h.DomainCreate(obs.Ctx(meter), 1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID == mem.DomID0 {
		t.Fatal("DomU got ID 0")
	}
	if d.Space().Pages() != 1024 {
		t.Fatalf("pages = %d", d.Space().Pages())
	}
	// Special pages are tagged.
	if k, _ := d.Space().Kind(d.StartInfoPFN); k != mem.KindStartInfo {
		t.Fatalf("start_info kind = %v", k)
	}
	if k, _ := d.Space().Kind(d.ConsolePFN); k != mem.KindConsole {
		t.Fatalf("console kind = %v", k)
	}
	if meter.Elapsed() < meter.Costs().DomainCreate {
		t.Fatal("DomainCreate not charged")
	}
	if err := h.DomainDestroy(obs.OpCtx{}, d.ID); err != nil {
		t.Fatal(err)
	}
	if got := h.Memory.FreeFrames(); got != free0 {
		t.Fatalf("destroy leaked %d frames", free0-got)
	}
	if _, err := h.Domain(d.ID); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("destroyed domain still present: %v", err)
	}
}

func TestDestroyDom0Refused(t *testing.T) {
	h := newHV(t)
	if err := h.DomainDestroy(obs.OpCtx{}, mem.DomID0); err == nil {
		t.Fatal("destroying Dom0 succeeded")
	}
}

func TestCreateDomainOOM(t *testing.T) {
	h := New(Config{MemoryBytes: 1 << 20, PerDomainOverheadFrames: 1}) // 256 frames
	if _, err := h.DomainCreate(obs.OpCtx{}, 10000, 1); !errors.Is(err, mem.ErrOutOfMemory) {
		t.Fatalf("oversized create: %v, want ErrOutOfMemory", err)
	}
	// Nothing leaked.
	if h.DomainCount() != 1 {
		t.Fatalf("DomainCount = %d after failed create", h.DomainCount())
	}
}

func TestPauseUnpause(t *testing.T) {
	h := newHV(t)
	d, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	if err := h.Pause(d.ID); err != nil {
		t.Fatal(err)
	}
	if !d.Paused() {
		t.Fatal("not paused after Pause")
	}
	// Nested pause.
	h.Pause(d.ID)
	h.Unpause(d.ID)
	if !d.Paused() {
		t.Fatal("pause refcount broken")
	}
	h.Unpause(d.ID)
	if d.Paused() {
		t.Fatal("still paused after matching unpauses")
	}
	d.AwaitRunnable() // must not block
}

func TestAwaitRunnableBlocksUntilUnpause(t *testing.T) {
	h := newHV(t)
	d, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	h.Pause(d.ID)
	released := make(chan struct{})
	go func() {
		d.AwaitRunnable()
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("AwaitRunnable returned while paused")
	default:
	}
	h.Unpause(d.ID)
	<-released
}

func TestVCPUAccess(t *testing.T) {
	h := newHV(t)
	d, _ := h.DomainCreate(obs.OpCtx{}, 16, 2)
	if d.VCPUCount() != 2 {
		t.Fatalf("VCPUCount = %d", d.VCPUCount())
	}
	if _, err := d.VCPU(5); !errors.Is(err, ErrBadVCPU) {
		t.Fatalf("VCPU(5): %v", err)
	}
	v, err := d.VCPU(1)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID != 1 {
		t.Fatalf("vcpu id = %d", v.ID)
	}
}

func TestFamilyTracking(t *testing.T) {
	h := newHV(t)
	h.SetCloningEnabled(true)
	p, _ := h.DomainCreate(obs.OpCtx{}, 16, 1)
	h.DomctlSetCloning(p.ID, true, 10)
	q, _ := h.DomainCreate(obs.OpCtx{}, 16, 1) // unrelated domain

	kids, _, _, err := cloneN(h, p.ID, p.ID, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != 2 {
		t.Fatalf("clones = %d", len(kids))
	}
	for _, k := range kids {
		h.CloneCompletion(obs.OpCtx{}, k, true)
	}
	if !h.SameFamily(p.ID, kids[0]) || !h.SameFamily(kids[0], kids[1]) {
		t.Fatal("family relation missing")
	}
	if h.SameFamily(p.ID, q.ID) {
		t.Fatal("unrelated domains reported as family")
	}
	if !h.IsDescendant(kids[0], p.ID) {
		t.Fatal("IsDescendant(child, parent) = false")
	}
	if h.IsDescendant(p.ID, kids[0]) {
		t.Fatal("IsDescendant(parent, child) = true")
	}
	// Grandchild via cloning a clone.
	c, _ := h.Domain(kids[0])
	h.DomctlSetCloning(c.ID, true, 5)
	gkids, _, _, err := cloneN(h, c.ID, c.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.CloneCompletion(obs.OpCtx{}, gkids[0], true)
	if !h.SameFamily(gkids[0], kids[1]) {
		t.Fatal("cousins not in the same family")
	}
	if !h.IsDescendant(gkids[0], p.ID) {
		t.Fatal("grandchild not a descendant of the root")
	}
}
