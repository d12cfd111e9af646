// Package cloned implements xencloned, the new toolstack daemon that runs
// the second stage of cloning in the host domain (§4.2, §5): it consumes
// clone notifications from the hypervisor ring (woken by VIRQ_CLONED),
// introduces each child to xenstored, clones the device registry entries
// with xs_clone requests, triggers the backend drivers to create
// pre-connected clone devices, performs the userspace finalization (udev
// handling, switch enslavement, 9pfs QMP cloning), and finally reports
// completion back through the CLONEOP hypercall.
package cloned

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"nephele/internal/devices"
	"nephele/internal/fault"
	"nephele/internal/hv"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// Options tune the daemon; the defaults match the paper's design, the
// alternatives are the ablations of §6.1.
type Options struct {
	// UseDeepCopy replaces xs_clone with the client-side deep copy (one
	// request per node) — the "clone + XS deep copy" series of Fig. 4.
	UseDeepCopy bool
	// SkipDevices limits the second stage to the mandatory operations
	// (toolstack introduction), the configuration used by the Fig. 6
	// memory-scaling experiment.
	SkipDevices bool
	// SkipNetworkDevices skips vif cloning only (the Redis experiment
	// clones no network devices, §7.1).
	SkipNetworkDevices bool
}

// maxRetries bounds the retry attempts after a transient second-stage
// failure.
const maxRetries = 3

// FailureStats counts the daemon's failure handling activity. It is a
// point-in-time read of the daemon's registry counters (the hypervisor's
// metrics registry is the single source of truth), kept as a struct so
// existing callers and tests keep working.
type FailureStats struct {
	// Failures is the number of second stages that ultimately failed
	// (fatal fault, or transient retries exhausted).
	Failures int
	// Retries is the number of retry attempts made after transient
	// faults.
	Retries int
	// Rollbacks is the number of partial-clone rollbacks performed
	// (one before every retry and every abort).
	Rollbacks int
	// Aborts is the number of clone_abort hypercalls issued.
	Aborts int
}

// clonedMetrics caches the daemon's instruments in the shared registry.
type clonedMetrics struct {
	failures      *obs.Counter   // cloned.failures
	retries       *obs.Counter   // cloned.retries
	rollbacks     *obs.Counter   // cloned.rollbacks
	aborts        *obs.Counter   // cloned.aborts
	secondStageUS *obs.Histogram // cloned.second_stage_us: per-child second-stage virtual time
}

// parentInfo is the cached Xenstore view of a parent domain, read once on
// its first clone and reused afterwards.
type parentInfo struct {
	name string
	// id is the parent's domain ID as Xenstore spells it: the value the
	// xs_clone heuristics rewrite and each child's "parent" entry.
	id string
	// kinds holds what the parent owns of each device kind, parallel to
	// the device-kind table.
	kinds []parentKind
	// snapshots caches parent device subtrees (by root path) for the
	// deep-copy ablation, so later clones skip re-reading the store.
	snapshots map[string][]xenstore.Pair
}

// parentKind is the parent's share of one device kind: its device indices
// and, when it has any, the two directories each child's xs_clone requests
// copy, plus a handle on the directory that holds every domain's backend
// directory of the kind, which a child's goes in under its ID.
type parentKind struct {
	devs        []int
	front, back string
	backends    xenstore.Dir
}

// Daemon is the xencloned process.
type Daemon struct {
	HV    *hv.Hypervisor
	Store *xenstore.Store
	XL    *toolstack.XL
	Net   *devices.Switch
	Opts  Options

	// cache holds each live parent's device inventory, read on its first
	// clone; a parent's entry goes when the toolstack releases it.
	cache map[hv.DomID]*parentInfo
	// secondStage records the virtual duration of the second stage per
	// live child, so experiment drivers can compose total clone latency;
	// a child's entry goes when the toolstack releases it.
	secondStage map[hv.DomID]vclock.Duration
	served      int
	met         clonedMetrics
}

// New creates the daemon and enables cloning globally (xencloned is
// responsible for that, §5.1).
func New(hyp *hv.Hypervisor, store *xenstore.Store, xl *toolstack.XL, net *devices.Switch, opts Options) *Daemon {
	reg := hyp.Metrics()
	d := &Daemon{
		HV:          hyp,
		Store:       store,
		XL:          xl,
		Net:         net,
		Opts:        opts,
		cache:       make(map[hv.DomID]*parentInfo),
		secondStage: make(map[hv.DomID]vclock.Duration),
		met: clonedMetrics{
			failures:      reg.Counter("cloned.failures"),
			retries:       reg.Counter("cloned.retries"),
			rollbacks:     reg.Counter("cloned.rollbacks"),
			aborts:        reg.Counter("cloned.aborts"),
			secondStageUS: reg.Histogram("cloned.second_stage_us"),
		},
	}
	xl.WatchRelease(func(id hv.DomID) {
		delete(d.secondStage, id)
		delete(d.cache, id)
	})
	hyp.SetCloningEnabled(true)
	return d
}

// Served reports how many clone notifications the daemon has processed.
func (d *Daemon) Served() int {
	return d.served
}

// FailureStats reports the daemon's failure/retry/rollback counters, read
// from the shared metrics registry.
func (d *Daemon) FailureStats() FailureStats {
	return FailureStats{
		Failures:  int(d.met.failures.Value()),
		Retries:   int(d.met.retries.Value()),
		Rollbacks: int(d.met.rollbacks.Value()),
		Aborts:    int(d.met.aborts.Value()),
	}
}

// SecondStageDuration reports the second-stage virtual time spent for a
// child, while it lives.
func (d *Daemon) SecondStageDuration(child hv.DomID) (vclock.Duration, bool) {
	t, ok := d.secondStage[child]
	return t, ok
}

// Serve drains the notification ring and runs the second stage for every
// pending clone, in arrival order on the caller's context: the context
// carries the meter the batch charges onto and the trace its second-stage
// spans land in. Arrival order keeps each
// parent's children in notification order, which the failure protocol
// (nth-child fault semantics) and the parent-info cache warm-up rely on. It
// returns the number of clones completed, which is accurate even when some
// notifications failed: clones are isolated from each other, so one failed
// child is rolled back and aborted while the rest of the batch completes
// normally. The returned error joins the per-child failures.
//
// Each child's completion or abort releases its reference on the request's
// completion record, so Serve resumes a parent whose last child it reports.
func (d *Daemon) Serve(ctx obs.OpCtx) (int, error) {
	ctx = ctx.EnsureMeter(nil)
	served := 0
	var errs []error
	for _, n := range d.HV.PopNotifications() {
		if err := d.serveOneIsolated(ctx, n); err != nil {
			errs = append(errs, fmt.Errorf("cloned: second stage for %d: %w", n.Child, err))
			continue
		}
		served++
	}
	return served, errors.Join(errs...)
}

// serveOneIsolated runs the second stage for one notification with the
// daemon's failure protocol around it: on any failure the partial clone is
// rolled back; transient faults are retried with exponential backoff up to
// the retry budget; a fatal fault (or an exhausted budget) aborts the
// clone through CLONEOP so the parent resumes with the child reported
// failed.
func (d *Daemon) serveOneIsolated(ctx obs.OpCtx, n hv.CloneNotification) error {
	meter := ctx.Meter()
	for attempt := 0; ; attempt++ {
		err := d.serveOne(ctx, n)
		if err == nil {
			return nil
		}
		d.rollback(ctx, n)
		d.met.rollbacks.Inc()
		if fault.IsTransient(err) && attempt < maxRetries {
			d.met.retries.Inc()
			// Exponential backoff: base, 2x base, 4x base, ...
			meter.Charge(meter.Costs().CloneRetryBase, 1<<attempt)
			continue
		}
		// Fatal (or retries exhausted): abort the half-clone so the
		// parent unblocks and every hypervisor-side resource of the
		// child is released.
		d.met.failures.Inc()
		d.met.aborts.Inc()
		if aerr := d.HV.CloneAbort(ctx, n.Child); aerr != nil {
			return errors.Join(err, fmt.Errorf("cloned: abort of %d: %w", n.Child, aerr))
		}
		return err
	}
}

// serveOne runs the full second stage for one clone notification.
func (d *Daemon) serveOne(ctx obs.OpCtx, n hv.CloneNotification) error {
	meter := ctx.Meter()
	ctx, span := ctx.StartSpan("second-stage")
	defer span.End()
	start := meter.Elapsed()
	meter.Charge(meter.Costs().XenclonedWake, 1)

	info, err := d.parentInfo(ctx, n.Parent)
	if err != nil {
		return err
	}

	// The child's directory, its device directory and its ID, formatted
	// once for every path and value below.
	dom, dev, id := devices.DomainDirs(uint32(n.Child))

	// Step 2.1: introduce the child to xenstored (augmented with the
	// parent ID) and write its base entries.
	if err := func() error {
		_, ispan := ctx.StartSpan("xenstore-intro")
		defer ispan.End()
		meter.Charge(meter.Costs().Introduce, 1)
		dir, err := d.Store.Dir(dom)
		if err != nil {
			return err
		}
		childName := info.name + "-clone-" + id
		for _, w := range [...]devices.Entry{
			{Key: "name", Value: childName},
			{Key: "domid", Value: id},
			{Key: "parent", Value: info.id},
		} {
			if err := dir.Write(w.Key, w.Value, meter); err != nil {
				return err
			}
		}
		_, err = d.XL.AdoptClone(n.Parent, n.Child, childName)
		return err
	}(); err != nil {
		return err
	}

	if !d.Opts.SkipDevices {
		dctx, dspan := ctx.StartSpan("device-clone")
		err := d.cloneDevices(dctx, n, info, dev, id)
		dspan.End()
		if err != nil {
			return err
		}
	}

	// Step 2.4: report completion; the hypervisor resumes the parent and
	// the child. CloneCompletion records its own span on the passed
	// context.
	if err := d.HV.CloneCompletion(ctx, n.Child); err != nil {
		return err
	}

	dur := meter.Elapsed() - start
	d.secondStage[n.Child] = dur
	d.served++
	d.met.secondStageUS.Observe(int64(dur / 1000))
	return nil
}

// rollback undoes whatever part of the second stage completed for a failed
// child, in reverse creation order: device backends first (the table's
// shared teardown), then the toolstack record, then the child's Xenstore
// subtree and its backend directory of every kind. Every step tolerates
// the state it undoes being absent, so rollback is safe no matter where
// the second stage failed, and running it twice is harmless. The
// hypervisor-side teardown (domain, COW references, clone budget) is NOT
// done here — that is CloneAbort's job, invoked only when the failure is
// terminal.
func (d *Daemon) rollback(ctx obs.OpCtx, n hv.CloneNotification) {
	ctx, span := ctx.StartSpan("rollback")
	defer span.End()
	c := uint32(n.Child)
	kinds := d.XL.Devices
	kinds.Teardown(ctx, c, d.Net)
	d.XL.ReleaseClone(n.Child)
	d.XL.RemoveEntries(ctx, n.Child, devices.AllKinds)
}

// parentInfo reads (or recalls) the parent's device inventory. The first
// clone pays the Xenstore reads; later clones hit the cache (§6.2).
func (d *Daemon) parentInfo(ctx obs.OpCtx, parent hv.DomID) (*parentInfo, error) {
	meter := ctx.Meter()
	if info, ok := d.cache[parent]; ok {
		return info, nil
	}
	name, err := d.Store.Read(devices.DomainPath(uint32(parent))+"/name", meter)
	if err != nil {
		return nil, err
	}
	kinds := d.XL.Devices
	info := &parentInfo{
		name:  name,
		id:    strconv.FormatUint(uint64(parent), 10),
		kinds: make([]parentKind, len(kinds)),
	}
	for k := range kinds {
		pk := &info.kinds[k]
		front := devices.FrontendDir(uint32(parent), kinds[k].Dir)
		if !d.Store.Exists(front, meter) {
			continue
		}
		names, err := d.Store.Directory(front, meter)
		if err != nil {
			return nil, err
		}
		for _, s := range names {
			if idx, err := strconv.Atoi(s); err == nil {
				pk.devs = append(pk.devs, idx)
			}
		}
		if len(pk.devs) == 0 {
			continue
		}
		// The backend directory is /local/domain/0/backend/<kind>/<id>:
		// the handle is on the directory above it.
		pk.front, pk.back = front, devices.BackendDir(uint32(parent), kinds[k].Dir)
		if pk.backends, err = d.Store.Dir(pk.back[:strings.LastIndexByte(pk.back, '/')]); err != nil {
			return nil, err
		}
	}
	d.cache[parent] = info
	return info, nil
}

// cloneStoreDir clones the parent's directory src onto key below dst with
// xs_clone or, under the ablation, a deep copy: xencloned reads (and
// caches) the parent subtree, then sends one Write request per node —
// exactly how the entries would be created on regular instantiation
// (§6.1). id is the child's ID as Xenstore spells it.
func (d *Daemon) cloneStoreDir(ctx obs.OpCtx, n hv.CloneNotification, info *parentInfo, op xenstore.CloneOp, src string, dst *xenstore.Dir, key, id string) error {
	meter := ctx.Meter()
	if !d.Opts.UseDeepCopy {
		return dst.Clone(info.id, id, op, src, key, meter)
	}
	pairs, err := d.snapshot(ctx, n.Parent, src)
	if err != nil {
		return err
	}
	root := dst.Path() + "/" + key
	for _, pr := range pairs {
		rel, val := xenstore.RewriteForClone(uint32(n.Parent), uint32(n.Child), op, pr.Path, pr.Value)
		path := root
		if rel != "" {
			path = root + "/" + rel
		}
		if err := d.Store.Write(path, val, meter); err != nil {
			return err
		}
	}
	return nil
}

// snapshot returns the cached subtree of a parent device directory,
// reading it from the store on the first use.
func (d *Daemon) snapshot(ctx obs.OpCtx, parent hv.DomID, src string) ([]xenstore.Pair, error) {
	meter := ctx.Meter()
	if info, ok := d.cache[parent]; ok && info.snapshots != nil {
		if pairs, ok := info.snapshots[src]; ok {
			return pairs, nil
		}
	}
	pairs, err := d.Store.Snapshot(src, meter)
	if err != nil {
		return nil, err
	}
	if info, ok := d.cache[parent]; ok {
		if info.snapshots == nil {
			info.snapshots = make(map[string][]xenstore.Pair)
		}
		info.snapshots[src] = pairs
	}
	return pairs, nil
}

// cloneDevices runs steps 2.1-2.3 for every parent device, kind by kind in
// table order: one xs_clone request per directory (frontend, then backend)
// carries the store entries of all the kind's devices, then the backend
// creates each pre-connected clone device and finalizes it (for a vif: the
// udev event and the switch attachment). The requests go through handles:
// one on the child's device directory dev, with the kind as the key, and
// the parent's per-kind one on the backend directories, with the child's
// ID as the key; the parent's directories come from its cached info.
func (d *Daemon) cloneDevices(ctx obs.OpCtx, n hv.CloneNotification, info *parentInfo, dev, id string) error {
	p, c := uint32(n.Parent), uint32(n.Child)
	front, err := d.Store.Dir(dev)
	if err != nil {
		return err
	}
	kinds := d.XL.Devices
	for k := range kinds {
		kind, pk := &kinds[k], &info.kinds[k]
		if len(pk.devs) == 0 || kind.Network && d.Opts.SkipNetworkDevices {
			continue
		}
		if err := d.cloneStoreDir(ctx, n, info, kind.CloneOp, pk.front, &front, kind.Dir, id); err != nil {
			return err
		}
		if err := d.cloneStoreDir(ctx, n, info, kind.CloneOp, pk.back, &pk.backends, id, id); err != nil {
			return err
		}
		for _, idx := range pk.devs {
			if err := kind.Clone(ctx, p, c, idx, d.Net); err != nil {
				return err
			}
		}
	}
	return nil
}
