package hv

import (
	"fmt"

	"nephele/internal/evtchn"
	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// CloneOutcome is the terminal state of one child's trip through the
// two-stage pipeline.
type CloneOutcome int

const (
	// OutcomePending: the child exists but xencloned has not reported
	// completion or abort yet.
	OutcomePending CloneOutcome = iota
	// OutcomeCompleted: the second stage finished and the child runs (or
	// stays paused if so configured).
	OutcomeCompleted
	// OutcomeAborted: the second stage failed; the child was destroyed
	// and its resources released.
	OutcomeAborted
)

func (o CloneOutcome) String() string {
	switch o {
	case OutcomePending:
		return "pending"
	case OutcomeCompleted:
		return "completed"
	case OutcomeAborted:
		return "aborted"
	default:
		return fmt.Sprintf("CloneOutcome(%d)", int(o))
	}
}

// CloneOpStats reports the work done by one first-stage clone, for the
// microbenchmark drivers.
type CloneOpStats struct {
	Memory mem.CloneStats
	Events evtchn.CloneStats
	Grants int
	VCPUs  int
	// FirstStage is the virtual time spent inside the hypervisor for
	// this clone (§6.1 reports ~1 ms for a 4 MB guest).
	FirstStage vclock.Duration
}

// DomctlSetCloning enables or disables cloning for a domain and sets the
// maximum number of clones — the domctl extension of §5.1. A guest can be
// cloned only if its configuration allows a non-zero maximum.
func (h *Hypervisor) DomctlSetCloning(id DomID, enabled bool, maxClones int) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	d.clone.enabled = enabled
	d.clone.maxClones = maxClones
	return nil
}

// SetCloningEnabled toggles cloning globally; xencloned enables it when it
// starts (§5.1).
func (h *Hypervisor) SetCloningEnabled(on bool) {
	h.cloningEnabled = on
}

// CloneRequest is one parent's CLONEOP. Caller is the domain invoking the
// hypercall (the parent itself, or Dom0 on its behalf); Target is the parent
// to clone N times. Ctx carries the request's meter and active span; a
// context without a meter gets a throwaway one.
type CloneRequest struct {
	Caller   DomID
	Target   DomID
	N        int // children to create; fewer than one is ErrBadCloneCount
	CopyRing bool
	// Mode selects eager (the zero value) or lazy child population; lazy
	// children defer their regular pages past the first stage, to demand
	// faults and to WaitStreamed (see mem.CloneLazy).
	Mode mem.CloneMode
	Ctx  obs.OpCtx
}

// CloneResult is the outcome of one clone request.
type CloneResult struct {
	Children []DomID
	Stats    *CloneOpStats
	Done     <-chan struct{}
	Err      error
}

// cloneRecord is one request's completion record. refs counts the
// children whose second stage is still outstanding plus one reference the
// request holds until Clone returns, so a request that built no child
// closes Done as well. CloneCompletion and CloneAbort each release one
// reference.
type cloneRecord struct {
	parent *Domain
	refs   int
	Done   chan struct{} // the request's CloneResult.Done
}

// release drops one reference on rec. The last one resumes the parent,
// unless a failed request already did, and closes Done.
func (h *Hypervisor) release(rec *cloneRecord) {
	rec.refs--
	if rec.refs > 0 {
		return
	}
	if rec.parent != nil {
		rec.parent.unpause()
	}
	close(rec.Done)
}

// Clone is the clone subcommand of the CLONEOP hypercall: it runs the
// first stage of cloning for the calling domain (or, when invoked from
// Dom0, for an explicitly named domain — e.g. for VM fuzzing), creating
// req.N children whose IDs are returned, mirroring the array the real
// hypercall fills in. The parent is paused until xencloned completes the
// second stage for every child; the result's Done channel is closed once
// all completions arrived and the parent has been resumed. The request's
// completion record (cloneRecord) does the counting: the report of the
// last child resumes the parent. Done is kept for benchmark/, which waits
// on it; every caller in this module drives the second stage itself on
// the same goroutine before it looks.
//
// req.CopyRing selects the I/O-ring clone policy for the address-space
// pages tagged KindIORing (network rings are copied; the console ring page
// is a distinct kind and always fresh).
//
// The request runs on the caller's goroutine and charges its own context.
// It is admitted first (hypercall charge, policy and budget, parent pause,
// child ID reservation); then each child in order passes the fault gate, is
// built and has its notification pushed. The first failure stops the loop:
// the children built before it stay (their second stage proceeds), the
// unused IDs and budget are refunded and the parent resumes at once; the
// later reports of those children resume nothing.
func (h *Hypervisor) Clone(req CloneRequest) CloneResult {
	// The request's root span opens before any charge so every phase nests
	// under it; span bookkeeping itself charges nothing, keeping the golden
	// virtual-time series identical with tracing on or off. It covers the
	// first stage only; the parent-paused wait for the second stage is the
	// platform layer's span.
	ctx, span := req.Ctx.EnsureMeter(nil).StartSpan("clone-request")
	defer span.End()
	meter := ctx.Meter()
	meter.Charge(meter.Costs().Hypercall, 1)
	parent, err := h.admitClone(req)
	if err != nil {
		h.met.cloneFailures.Inc()
		return CloneResult{Err: err}
	}
	n := req.N

	// Reserve the child IDs up front: a request whose IDs would reach the
	// reserved range fails as a whole.
	first, err := h.reserveDomIDs(n)
	if err != nil {
		parent.clone.made -= n
		h.met.cloneFailures.Inc()
		return CloneResult{Err: err}
	}

	// The parent is paused until the completion of the second stage so
	// its state stays consistent for all its clones (§5).
	parent.pause()
	start := meter.Elapsed()

	stats := &CloneOpStats{}
	children := make([]DomID, 0, n)
	rec := &cloneRecord{parent: parent, refs: 1, Done: make(chan struct{})}
	used := 0 // IDs consumed: a child that fails past the gate keeps its ID
	for i := 0; i < n; i++ {
		if err = h.faults.Check(fault.PointHVCloneOne); err != nil {
			break
		}
		used++
		var child *Domain
		var st CloneOpStats
		if child, st, err = h.cloneOne(ctx, parent, first+DomID(i), req.CopyRing, req.Mode); err != nil {
			break
		}
		parent.children = append(parent.children, child.ID)
		stats.Memory.SharedPages += st.Memory.SharedPages
		stats.Memory.PrivateCopies += st.Memory.PrivateCopies
		stats.Memory.PrivateFresh += st.Memory.PrivateFresh
		stats.Memory.PTEntries += st.Memory.PTEntries
		stats.Memory.P2MEntries += st.Memory.P2MEntries
		stats.Memory.MetaFrames += st.Memory.MetaFrames
		stats.Memory.Extents += st.Memory.Extents
		stats.Memory.Deferred += st.Memory.Deferred
		stats.Events.Cloned += st.Events.Cloned
		stats.Events.IDCBound += st.Events.IDCBound
		stats.Grants += st.Grants
		stats.VCPUs += st.VCPUs
		h.met.extents.Observe(int64(st.Memory.Extents))

		// Queue the notification for xencloned and raise VIRQ_CLONED.
		nctx, nspan := ctx.StartSpan("notify-push")
		err = h.pushNotification(nctx, parent, child, rec)
		nspan.End()
		if err != nil {
			// The child was fully created but can never complete:
			// tear it down and refund the unused budget.
			h.DomainDestroy(ctx.WithMeter(nil), child.ID)
			break
		}
		children = append(children, child.ID)
	}
	if err != nil {
		// Return the unused IDs.
		h.nextDom = first + DomID(used)
		// The parent resumes now; the built children's reports must not
		// resume it again.
		rec.parent = nil
		parent.clone.made -= n - len(children)
		parent.unpause()
		h.release(rec)
		h.met.cloneFailures.Inc()
		return CloneResult{Children: children, Stats: stats, Err: err}
	}
	stats.FirstStage = meter.Lap(start)
	h.Events.RaiseVIRQ(ctx, evtchn.VIRQCloned)
	h.met.recordClone(stats, len(children))

	h.release(rec)
	return CloneResult{Children: children, Stats: stats, Done: rec.Done}
}

// admitClone validates one request — child count, cloning policy, caller
// and budget — and takes the request's children out of the parent's
// budget. It returns the parent, or why the request was refused with no
// state moved.
func (h *Hypervisor) admitClone(req CloneRequest) (*Domain, error) {
	// The child count is a guest-supplied hypercall argument: refuse a
	// request for no children, or fewer, before any state moves.
	if req.N < 1 {
		return nil, fmt.Errorf("%w: %d", ErrBadCloneCount, req.N)
	}
	if !h.cloningEnabled {
		return nil, fmt.Errorf("%w (global)", ErrCloningDisabled)
	}
	if req.Caller != mem.DomID0 && req.Caller != req.Target {
		return nil, fmt.Errorf("hv: domain %d may not clone %d", req.Caller, req.Target)
	}
	parent, err := h.Domain(req.Target)
	if err != nil {
		return nil, err
	}
	if !parent.clone.enabled || parent.clone.maxClones == 0 {
		return nil, fmt.Errorf("%w: domain %d", ErrCloningDisabled, req.Target)
	}
	if parent.clone.made+req.N > parent.clone.maxClones {
		return nil, fmt.Errorf("%w: %d made, %d requested, max %d",
			ErrCloneLimit, parent.clone.made, req.N, parent.clone.maxClones)
	}
	parent.clone.made += req.N
	return parent, nil
}

// cloneOne performs the hypervisor first stage for a single child with a
// pre-reserved domain ID. On any failure the partial child state is
// unwound: every allocated frame is returned, so a clone that dies of
// memory pressure leaves the parent exactly as it was. The caller owns the
// clone budget, the fault-injection gate and the parent.children link.
func (h *Hypervisor) cloneOne(ctx obs.OpCtx, parent *Domain, id DomID, copyRing bool, mode mem.CloneMode) (child *Domain, st CloneOpStats, err error) {
	meter := ctx.Meter()
	ctx, cspan := ctx.StartSpan("clone-child")
	defer cspan.End()
	defer func() {
		if err == nil {
			return
		}
		// Release whatever the child accumulated.
		if child != nil && child.space != nil {
			child.space.Release()
		}
		h.Memory.ReleaseN(id, h.overhead[id])
		delete(h.overhead, id)
		delete(h.domains, id)
		h.Events.RemoveDomain(id)
		h.Grants.RemoveDomain(id)
		child = nil
	}()

	_, vspan := ctx.StartSpan("vcpu-copy")
	child = newDomain(id, len(parent.vcpus))
	// vCPU state: user registers are replicated; RAX
	// differs — 0 for the parent, 1 for any child, like fork() (§5.2).
	for i, pv := range parent.vcpus {
		cv := child.vcpus[i]
		*cv = *pv
		cv.Regs.RAX = 1
		pv.Regs.RAX = 0
	}
	st.VCPUs = len(parent.vcpus)
	child.StartInfoPFN = parent.StartInfoPFN
	child.ConsolePFN = parent.ConsolePFN
	child.XenstorePFN = parent.XenstorePFN
	child.parent = parent.ID
	child.hasParent = true
	child.clone = cloneConfig{enabled: parent.clone.enabled, maxClones: parent.clone.maxClones}
	pspace := parent.space

	meter.Charge(meter.Costs().DomainCreate, 1)
	meter.Charge(meter.Costs().VCPUClone, st.VCPUs)
	vspan.End()

	// Memory: COW-share regular pages, duplicate/rewrite private ones,
	// rebuild page table and p2m (§5.2). Lazy mode stamps only the hot
	// extents now and defers the rest, for demand faults and the drain.
	spanName := "space-clone"
	if mode == mem.CloneLazy {
		spanName = "space-clone-lazy"
	}
	sctx, sspan := ctx.StartSpan(spanName)
	cspace, mst, err := pspace.CloneOpMode(sctx, id, copyRing, mode)
	sspan.End()
	if err != nil {
		return nil, st, err
	}
	st.Memory = mst
	child.space = cspace

	ov, err := h.Memory.AllocN(ctx, id, perDomainOverheadFrames)
	if err != nil {
		cspace.Release()
		return nil, st, err
	}

	// Children start paused; xencloned resumes them after stage two.
	child.pause()

	h.domains[id] = child
	h.overhead[id] = ov

	// Event channels and grant table.
	h.Events.AddDomain(id)
	h.Grants.AddDomain(id)
	_, espan := ctx.StartSpan("event-channels")
	est, err := h.Events.CloneDomain(ctx, parent.ID, id)
	espan.End()
	if err != nil {
		return nil, st, err
	}
	st.Events = est
	_, gspan := ctx.StartSpan("grant-table")
	xlate := func(m mem.MFN) mem.MFN { return m } // shared frames keep their MFN
	gst, err := h.Grants.CloneDomain(ctx, parent.ID, id, xlate)
	gspan.End()
	if err != nil {
		return nil, st, err
	}
	st.Grants = gst.Cloned
	return child, st, nil
}

// pushNotification appends a clone notification and takes a reference on
// the request's completion record for the child. A full ring
// back-pressures cloning by failing.
func (h *Hypervisor) pushNotification(ctx obs.OpCtx, parent, child *Domain, rec *cloneRecord) error {
	meter := ctx.Meter()
	if err := h.faults.Check(fault.PointHVNotifyPush); err != nil {
		return err
	}
	parentSI, _ := parent.Space().MFNOf(parent.StartInfoPFN)
	childSI, _ := child.Space().MFNOf(child.StartInfoPFN)
	if err := h.notify.push(CloneNotification{
		Parent:        parent.ID,
		Child:         child.ID,
		ParentSIFrame: parentSI,
		ChildSIFrame:  childSI,
	}); err != nil {
		return err
	}
	rec.refs++
	h.pending[child.ID] = rec
	meter.Charge(meter.Costs().CloneRingPush, 1)
	return nil
}

// PopNotifications drains the clone-notification ring; xencloned calls
// this when VIRQ_CLONED fires.
func (h *Hypervisor) PopNotifications() []CloneNotification {
	return h.notify.popAll()
}

// PendingNotifications reports the ring depth without draining.
func (h *Hypervisor) PendingNotifications() int {
	return len(h.notify)
}

// CloneCompletion is the clone_completion subcommand: xencloned reports
// that all userspace operations for child are done (§5.1), and the child
// resumes. Completion events arrive out of order across guests.
func (h *Hypervisor) CloneCompletion(ctx obs.OpCtx, child DomID) error {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("clone-completion")
	defer span.End()
	meter.Charge(meter.Costs().Hypercall, 1)
	h.met.completions.Inc()
	rec := h.pending[child]
	delete(h.pending, child)
	if rec != nil {
		h.outcomes[child] = OutcomeCompleted
	}
	if rec == nil {
		return fmt.Errorf("%w: domain %d", ErrNoPendingClone, child)
	}
	if d, err := h.Domain(child); err == nil {
		d.unpause()
	}
	h.release(rec)
	return nil
}

// CloneAbort is the clone_abort subcommand: xencloned reports that the
// second stage for child failed irrecoverably. The hypervisor destroys the
// half-clone (releasing its COW references, overhead frames, event
// channels and grant entries), unlinks it from the family tree, refunds
// the parent's clone budget, records the child as aborted and releases
// the child's reference on the request's completion record, so the parent
// resumes instead of deadlocking on a child that will never complete.
func (h *Hypervisor) CloneAbort(ctx obs.OpCtx, child DomID) error {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("clone-abort")
	defer span.End()
	meter.Charge(meter.Costs().Hypercall, 1)
	h.met.aborts.Inc()
	rec := h.pending[child]
	delete(h.pending, child)
	if rec != nil {
		h.outcomes[child] = OutcomeAborted
	}
	// Drop any still-queued notification for the child: an abort may
	// arrive before the daemon drained the ring (e.g. a second daemon
	// instance or an operator intervention).
	h.notify.drop(child)
	if rec == nil {
		return fmt.Errorf("%w: domain %d", ErrNoPendingClone, child)
	}

	// Refund the parent's clone budget before tearing the child down
	// (DomainDestroy unlinks the family edge).
	var destroyErr error
	if d, err := h.Domain(child); err == nil {
		if parentID, has := d.Parent(); has {
			if p, err := h.Domain(parentID); err == nil {
				p.clone.made--
			}
		}
		destroyErr = h.DomainDestroy(ctx, child)
	}
	// The parent must unblock no matter how the teardown went.
	h.release(rec)
	return destroyErr
}

// CloneOutcome reports the recorded terminal state of a child that went
// through the clone pipeline; ok is false for domains that never did,
// whose second stage is still pending, or that completed and were since
// destroyed. An aborted child keeps its entry after the abort destroyed it.
func (h *Hypervisor) CloneOutcome(child DomID) (CloneOutcome, bool) {
	o, ok := h.outcomes[child]
	return o, ok
}

// CloneCOW is the clone_cow subcommand added for KFX fuzzing (§7.2): it
// triggers COW explicitly for the given guest pages so breakpoints can be
// inserted in the clone's code regions without touching the family-shared
// frames.
func (h *Hypervisor) CloneCOW(ctx obs.OpCtx, id DomID, pfns []mem.PFN) error {
	meter := ctx.Meter()
	ctx, span := ctx.StartSpan("clone-cow")
	defer span.End()
	meter.Charge(meter.Costs().Hypercall, 1)
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	for _, pfn := range pfns {
		if err := d.Space().TouchCOW(ctx, pfn); err != nil {
			return err
		}
		h.met.cowPages.Inc()
	}
	return nil
}

// WaitStreamed materializes every page a lazily cloned child still defers
// (mem.Space.Drain): the deferred work runs here, charged to ctx's meter
// with one stream-extent span per chunk on its trace. A second wait has
// nothing left to do and only re-reports the stream's terminal error.
// Eagerly cloned domains return immediately with a nil error.
func (h *Hypervisor) WaitStreamed(ctx obs.OpCtx, id DomID) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	return d.Space().Drain(ctx)
}

// CloneReset is the clone_reset subcommand (§7.2): it restores the clone's
// dirtied pages to the family-shared state so a fuzzing iteration starts
// from the parent's memory image. Pages that were COW-broken are re-shared
// with the parent's current frames. It returns the number of pages restored
// (the paper reports ~3 dirty pages per iteration for Unikraft vs ~8 for a
// Linux guest).
func (h *Hypervisor) CloneReset(ctx obs.OpCtx, child DomID) (int, error) {
	meter := ctx.Meter()
	_, span := ctx.StartSpan("clone-reset")
	defer span.End()
	meter.Charge(meter.Costs().Hypercall, 1)
	d, err := h.Domain(child)
	if err != nil {
		return 0, err
	}
	parentID, has := d.Parent()
	if !has {
		return 0, fmt.Errorf("hv: domain %d is not a clone", child)
	}
	p, err := h.Domain(parentID)
	if err != nil {
		return 0, err
	}
	restored, err := d.Space().ResetOp(ctx, p.Space())
	meter.Charge(meter.Costs().CloneResetPage, restored)
	h.met.resetCalls.Inc()
	h.met.resetPages.Add(int64(restored))
	return restored, err
}
