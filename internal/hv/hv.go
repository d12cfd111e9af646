package hv

import (
	"fmt"
	"slices"
	"sync"

	"nephele/internal/evtchn"
	"nephele/internal/fault"
	"nephele/internal/gnttab"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// Config sizes a simulated machine.
type Config struct {
	// MemoryBytes is the machine memory managed by the hypervisor (the
	// pool guest domains allocate from; Dom0 memory is accounted by the
	// host side).
	MemoryBytes uint64
	// MaxEventPorts bounds each domain's event channel table.
	MaxEventPorts int
	// GrantEntries bounds each domain's grant table.
	GrantEntries int
	// NotifyRingSlots sizes the clone-notification ring registered by
	// xencloned; a full ring back-pressures first-stage cloning (§5).
	NotifyRingSlots int
	// PerDomainOverheadFrames models the hypervisor's fixed bookkeeping
	// allocation for any domain (struct domain, shadow, grant frames).
	PerDomainOverheadFrames int
}

// DefaultConfig returns the machine used throughout the paper's
// microbenchmarks: 12 GiB of guest-allocatable memory.
func DefaultConfig() Config {
	return Config{
		MemoryBytes:             12 << 30,
		MaxEventPorts:           1024,
		GrantEntries:            512,
		NotifyRingSlots:         128,
		PerDomainOverheadFrames: 90,
	}
}

// Hypervisor is the simulated Xen instance.
type Hypervisor struct {
	cfg Config

	Memory *mem.Memory
	Events *evtchn.Subsystem
	Grants *gnttab.Subsystem

	mu       sync.Mutex
	domains  map[DomID]*Domain
	nextDom  DomID
	overhead map[DomID][]mem.MFN // per-domain bookkeeping frames

	cloningEnabled bool

	// met caches the metric instruments fed by the clone pipeline; the
	// registry behind it is shared platform-wide via Metrics().
	met *hvMetrics

	// faults is the optional fault-injection registry threaded through
	// the first-stage clone path; nil never fires. An OpCtx fault scope
	// overrides it per operation.
	faults *fault.Registry

	// Clone notifications: a bounded indexed ring plus the VIRQ that
	// wakes xencloned. completionWaits maps a child domain to the channel
	// its first-stage clone blocks on until xencloned reports completion.
	// outcomes records the terminal state of every child that went
	// through the two-stage pipeline (completed or aborted).
	notify          *notifyRing
	completionWaits map[DomID]chan struct{}
	outcomes        map[DomID]CloneOutcome
}

// New creates a hypervisor with Dom0 pre-registered (ID 0), mirroring the
// automatic instantiation of the host domain at boot.
func New(cfg Config) *Hypervisor {
	if cfg.MaxEventPorts == 0 {
		cfg.MaxEventPorts = 1024
	}
	if cfg.GrantEntries == 0 {
		cfg.GrantEntries = 512
	}
	if cfg.NotifyRingSlots == 0 {
		cfg.NotifyRingSlots = 128
	}
	h := &Hypervisor{
		cfg:             cfg,
		Memory:          mem.New(cfg.MemoryBytes),
		Events:          evtchn.New(cfg.MaxEventPorts),
		Grants:          gnttab.New(cfg.GrantEntries),
		domains:         make(map[DomID]*Domain),
		met:             newHVMetrics(),
		nextDom:         1,
		overhead:        make(map[DomID][]mem.MFN),
		notify:          newNotifyRing(cfg.NotifyRingSlots),
		completionWaits: make(map[DomID]chan struct{}),
		outcomes:        make(map[DomID]CloneOutcome),
	}
	dom0 := newDomain(mem.DomID0, 1)
	h.domains[mem.DomID0] = dom0
	h.Events.AddDomain(mem.DomID0, nil)
	h.Grants.AddDomain(mem.DomID0)
	return h
}

// SetFaults installs a fault-injection registry on the first-stage clone
// path (tests); a nil registry disables injection.
func (h *Hypervisor) SetFaults(r *fault.Registry) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.faults = r
}

// Faults returns the installed fault registry (nil when none).
func (h *Hypervisor) Faults() *fault.Registry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.faults
}

// Domain looks a domain up.
func (h *Hypervisor) Domain(id DomID) (*Domain, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.domains[id]
	if d == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDomain, id)
	}
	return d, nil
}

// Domains lists live domain IDs (including Dom0) in ascending order, so
// callers that iterate domains (toolstack listings, fuzzing sweeps) see a
// deterministic sequence.
func (h *Hypervisor) Domains() []DomID {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]DomID, 0, len(h.domains))
	for id := range h.domains { //nephele:nondeterministic-ok — sorted below
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// DomainCount reports the number of live domains including Dom0.
func (h *Hypervisor) DomainCount() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.domains)
}

// FreeBytes reports unallocated hypervisor-managed memory.
func (h *Hypervisor) FreeBytes() uint64 {
	return uint64(h.Memory.FreeFrames()) * mem.PageSize
}

// SetEventHandler installs the event delivery callback for a domain
// (guests install theirs when their kernel starts), preserving any
// channels created before the kernel came up.
func (h *Hypervisor) SetEventHandler(id DomID, handler evtchn.Handler) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	h.Events.SetHandler(d.ID, handler)
	return nil
}

// DomainCreate allocates a fresh DomU with the given number of guest pages
// and vCPUs: the hypervisor part of what the toolstack does on `xl create`.
// The Xen-special pages (start_info, console ring, Xenstore ring) are
// carved out of the guest's own memory, as on real Xen.
func (h *Hypervisor) DomainCreate(ctx obs.OpCtx, pages, vcpus int) (*Domain, error) {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("domain-create")
	defer span.End()
	h.mu.Lock()
	id := h.nextDom
	h.nextDom++
	d := newDomain(id, vcpus)
	h.domains[id] = d
	h.mu.Unlock()

	meter.Charge(meter.Costs().DomainCreate, 1)
	space, err := mem.NewSpace(h.Memory, id, pages, meter)
	if err != nil {
		h.mu.Lock()
		delete(h.domains, id)
		h.mu.Unlock()
		return nil, err
	}
	ov, err := h.Memory.AllocN(id, h.cfg.PerDomainOverheadFrames, meter)
	if err != nil {
		space.Release()
		h.mu.Lock()
		delete(h.domains, id)
		h.mu.Unlock()
		return nil, err
	}
	h.mu.Lock()
	h.overhead[id] = ov
	h.mu.Unlock()

	d.mu.Lock()
	d.space = space
	d.mu.Unlock()

	// Reserve the Xen-special pages at the top of the guest space.
	if pages >= 3 {
		d.StartInfoPFN = mem.PFN(pages - 1)
		d.ConsolePFN = mem.PFN(pages - 2)
		d.XenstorePFN = mem.PFN(pages - 3)
		space.SetKind(d.StartInfoPFN, mem.KindStartInfo)
		space.SetKind(d.ConsolePFN, mem.KindConsole)
		space.SetKind(d.XenstorePFN, mem.KindXenstore)
	}

	h.Events.AddDomain(id, nil)
	h.Grants.AddDomain(id)
	return d, nil
}

// DomainDestroy tears a domain down and returns its memory.
func (h *Hypervisor) DomainDestroy(ctx obs.OpCtx, id DomID) error {
	meter := ctx.Meter()
	if id == mem.DomID0 {
		return fmt.Errorf("hv: refusing to destroy Dom0")
	}
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	d.mu.Lock()
	if d.destroyed {
		d.mu.Unlock()
		return nil
	}
	d.destroyed = true
	if d.resumeCh != nil {
		close(d.resumeCh)
		d.resumeCh = nil
		d.paused = 0
	}
	space := d.space
	parent, hasParent := d.parent, d.hasParent
	d.mu.Unlock()

	if space != nil {
		if err := space.Release(); err != nil {
			return err
		}
	}
	h.Events.RemoveDomain(id)
	h.Grants.RemoveDomain(id)

	h.mu.Lock()
	h.Memory.ReleaseN(id, h.overhead[id])
	delete(h.overhead, id)
	delete(h.domains, id)
	// Unlink from the family tree.
	if hasParent {
		if p := h.domains[parent]; p != nil {
			p.mu.Lock()
			for i, c := range p.children {
				if c == id {
					p.children = append(p.children[:i], p.children[i+1:]...)
					break
				}
			}
			p.mu.Unlock()
		}
	}
	h.mu.Unlock()

	meter.Charge(meter.Costs().DomainDestroy, 1)
	return nil
}

// Pause pauses a domain (toolstack operation).
func (h *Hypervisor) Pause(id DomID) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	d.pause()
	return nil
}

// Unpause resumes a domain.
func (h *Hypervisor) Unpause(id DomID) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	d.unpause()
	return nil
}

// SameFamily reports whether a and b are family-related: they share a
// common ancestor or one is the ancestor of the other (§4).
func (h *Hypervisor) SameFamily(a, b DomID) bool {
	if a == b {
		return true
	}
	ra, okA := h.familyRoot(a)
	rb, okB := h.familyRoot(b)
	return okA && okB && ra == rb
}

func (h *Hypervisor) familyRoot(id DomID) (DomID, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.domains[id]
	if d == nil {
		return 0, false
	}
	for {
		d.mu.Lock()
		parent, has := d.parent, d.hasParent
		d.mu.Unlock()
		if !has {
			return d.ID, true
		}
		p := h.domains[parent]
		if p == nil {
			return d.ID, true
		}
		d = p
	}
}

// IsDescendant reports whether child descends from ancestor.
func (h *Hypervisor) IsDescendant(child, ancestor DomID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.domains[child]
	for d != nil {
		d.mu.Lock()
		parent, has := d.parent, d.hasParent
		d.mu.Unlock()
		if !has {
			return false
		}
		if parent == ancestor {
			return true
		}
		d = h.domains[parent]
	}
	return false
}
