// Package fault is a deterministic fault-injection subsystem for the
// two-stage clone pipeline. Production code declares named fault points
// (one per operation that can fail in the real system: a hypercall step, a
// Xenstore request, a backend clone) and consults a Registry at each of
// them; tests arm the registry with trigger policies (fail once, fail on
// the Nth hit, fail always) and an error kind (transient vs. fatal) and
// then assert how the pipeline degrades: transient faults are retried with
// backoff, fatal ones roll the clone back and abort it so the parent never
// deadlocks.
//
// A nil *Registry is valid and never fires, so the production wiring can
// thread a registry through unconditionally; the zero-configuration path
// costs one nil check per fault point.
package fault

import (
	"errors"
	"fmt"
	"sync"
)

// Kind classifies an injected failure.
type Kind int

const (
	// Transient marks a failure worth retrying (the paper's second stage
	// spans xenstored, the toolstack and backend processes — any of them
	// can return a momentary error, e.g. EAGAIN from a QMP socket).
	Transient Kind = iota
	// Fatal marks a failure that will not heal on retry; the clone must
	// be rolled back and aborted.
	Fatal
)

func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Fatal:
		return "fatal"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Pipeline fault points. The names are stable identifiers used by the
// fault-matrix test suite; every operation of the clone pipeline that can
// fail on real hardware has one.
const (
	// First stage (inside the CLONEOP hypercall).

	// PointHVCloneOne fires in the hypervisor's per-child first stage
	// (memory COW setup, vCPU replication, event/grant cloning).
	PointHVCloneOne = "hv/clone-one"
	// PointHVNotifyPush fires when the hypervisor queues the clone
	// notification for xencloned (a full ring fails here for real).
	PointHVNotifyPush = "hv/notify-push"

	// Second stage (xencloned).

	// PointXSWrite fires on a Xenstore write request.
	PointXSWrite = "xenstore/write"
	// PointXSClone fires on an xs_clone request.
	PointXSClone = "xenstore/clone"
	// PointToolstackAdopt fires when xencloned registers the child with
	// the toolstack.
	PointToolstackAdopt = "toolstack/adopt-clone"
	// PointDevConsoleClone fires in the console backend's clone path.
	PointDevConsoleClone = "device/console/clone"
	// PointDevVifClone fires in the netback clone path.
	PointDevVifClone = "device/vif/clone"
	// PointDev9pfsClone fires in the 9pfs backend's QMP clone path.
	PointDev9pfsClone = "device/9pfs/clone"
	// PointDevVbdClone fires in the block backend's clone path.
	PointDevVbdClone = "device/vbd/clone"

	// Lazy clone (the background streamer and demand-fault paths; these
	// fire after CLONEOP returns, so they are not pipeline points).

	// PointMemStreamExtent fires before the streamer materializes a chunk
	// of lazy entries.
	PointMemStreamExtent = "mem/stream-extent"
	// PointMemUnmappedFault fires when a demand access materializes a
	// lazy entry.
	PointMemUnmappedFault = "mem/unmapped-fault"
	// PointMemLazyFinalize fires when the streamer observes the last lazy
	// entry materialized and finalizes the child.
	PointMemLazyFinalize = "mem/lazy-finalize"

	// Snapshot image cache (the content-addressed restore fast path;
	// these fire outside the clone pipeline).

	// PointCacheInsert fires after the image store has built a new set of
	// resident chunks but before it commits them; an armed point rolls
	// the partially built insert back and the store is unchanged.
	PointCacheInsert = "toolstack/cache-insert"
	// PointCacheRestore fires on the cached-restore fast path after the
	// child domain is created but before any cache frames are adopted;
	// an armed point destroys the fresh child and the restore fails
	// cleanly with the cache intact.
	PointCacheRestore = "toolstack/cache-restore"

	// Cross-host clone transfers (the cluster remote-clone path).

	// PointClusterXfer fires on the sending side after the transfer plan
	// is built but before anything is committed on the receiver; an armed
	// point fails the remote clone with no child created, the receiver's
	// image store untouched, and no vector-clock movement on either host.
	PointClusterXfer = "cluster/xfer"
	// PointClusterMaterialize fires on the receiving side after the
	// extents have arrived but before the child is restored; an armed
	// point rolls the materialization back — no child domain survives on
	// the peer and the receiver's vector clock does not tick.
	PointClusterMaterialize = "cluster/materialize"
)

// CachePoints lists the fault points of the snapshot image cache. Like
// LazyPoints they sit outside PipelinePoints: a failure is handled by
// rolling back the cache mutation (insert) or destroying the fresh child
// (cached restore), not by the clone pipeline's rollback protocol.
func CachePoints() []string {
	return []string{PointCacheInsert, PointCacheRestore}
}

// FirstStagePoints lists the fault points inside the CLONEOP hypercall:
// a failure there surfaces as a Clone error before any notification
// reaches xencloned, and the hypervisor unwinds the partial child itself.
func FirstStagePoints() []string {
	return []string{PointHVCloneOne, PointHVNotifyPush}
}

// SecondStagePoints lists the fault points of the xencloned second stage:
// a failure there triggers the daemon's rollback + retry/abort protocol.
func SecondStagePoints() []string {
	return []string{
		PointXSWrite,
		PointXSClone,
		PointToolstackAdopt,
		PointDevConsoleClone,
		PointDevVifClone,
		PointDev9pfsClone,
		PointDevVbdClone,
	}
}

// PipelinePoints lists every fault point of the clone pipeline.
func PipelinePoints() []string {
	return append(FirstStagePoints(), SecondStagePoints()...)
}

// LazyPoints lists the fault points of lazy-clone materialization. They
// fire after the CLONEOP hypercall has returned — in the background
// streamer or a demand fault — so they are kept out of PipelinePoints: a
// failure here leaves a live child with unstreamed pages, handled by
// cancelling the stream and destroying the child rather than by the
// pipeline's rollback protocol.
func LazyPoints() []string {
	return []string{PointMemStreamExtent, PointMemUnmappedFault, PointMemLazyFinalize}
}

// ClusterPoints lists the fault points of the cross-host remote-clone
// path. Both sit outside PipelinePoints: the sender fails the transfer
// before the receiver commits anything (xfer) or the receiver destroys its
// partial child (materialize), so the cluster rolls back by itself with no
// pipeline protocol involved.
func ClusterPoints() []string {
	return []string{PointClusterXfer, PointClusterMaterialize}
}

// Error is the failure an armed fault point returns.
type Error struct {
	Point string
	Kind  Kind
}

// Error implements the error interface.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s failure at %s", e.Kind, e.Point)
}

// IsFault reports whether err is (or wraps) an injected fault.
func IsFault(err error) bool {
	var fe *Error
	return errors.As(err, &fe)
}

// IsTransient reports whether err is an injected transient fault.
func IsTransient(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Kind == Transient
}

// IsFatal reports whether err is an injected fatal fault.
func IsFatal(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Kind == Fatal
}

// PointOf returns the fault point an injected error fired at.
func PointOf(err error) (string, bool) {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Point, true
	}
	return "", false
}

// Trigger is a deterministic firing policy for one armed fault point.
type Trigger struct {
	// nth is the 1-based hit index on which the rule fires; 0 fires on
	// every hit.
	nth int
}

// FailOnce fires on the first hit only.
func FailOnce() Trigger { return Trigger{nth: 1} }

// FailNth fires on the nth hit only (1-based). FailNth(1) == FailOnce().
func FailNth(n int) Trigger { return Trigger{nth: n} }

// FailAlways fires on every hit.
func FailAlways() Trigger { return Trigger{nth: 0} }

// rule is one armed fault point.
type rule struct {
	trigger Trigger
	kind    Kind
	hits    int // hits since this rule was armed
}

// Registry holds the armed fault points and their hit counters. All
// methods are safe for concurrent use; a nil *Registry never fires.
type Registry struct {
	mu    sync.Mutex
	rules map[string]*rule
	hits  map[string]int // per-point hits, armed or not
	fired map[string]int // per-point injected failures
}

// NewRegistry creates an empty registry: every Check passes until a point
// is armed with Inject.
func NewRegistry() *Registry {
	return &Registry{
		rules: make(map[string]*rule),
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
}

// Inject arms point with a trigger policy and error kind, replacing any
// previous rule (and its hit counter) for that point.
func (r *Registry) Inject(point string, tr Trigger, kind Kind) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules[point] = &rule{trigger: tr, kind: kind}
}

// Clear disarms point; its cumulative counters are kept.
func (r *Registry) Clear(point string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.rules, point)
}

// Reset disarms every point and zeroes all counters.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rules = make(map[string]*rule)
	r.hits = make(map[string]int)
	r.fired = make(map[string]int)
}

// Check evaluates point: it returns an *Error when an armed rule fires and
// nil otherwise. Calling Check on a nil registry always passes.
func (r *Registry) Check(point string) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hits[point]++
	rl, ok := r.rules[point]
	if !ok {
		return nil
	}
	rl.hits++
	if rl.trigger.nth != 0 && rl.hits != rl.trigger.nth {
		return nil
	}
	r.fired[point]++
	return &Error{Point: point, Kind: rl.kind}
}

// Hits reports how many times point was evaluated (armed or not).
func (r *Registry) Hits(point string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[point]
}

// Fired reports how many failures were injected at point.
func (r *Registry) Fired(point string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[point]
}

// TotalFired reports the number of injected failures across all points.
func (r *Registry) TotalFired() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, n := range r.fired {
		total += n
	}
	return total
}
