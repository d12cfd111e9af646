package core

import (
	"errors"
	"fmt"

	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// CloneMode re-exports the population mode so CloneSpec callers don't
// import internal/mem.
type CloneMode = mem.CloneMode

// Clone population modes.
const (
	CloneEager = mem.CloneEager
	CloneLazy  = mem.CloneLazy
)

// ErrNoRouter is returned by CloneOp for a spec carrying a Placement when
// no cluster router is attached (SetCloneRouter).
var ErrNoRouter = errors.New("core: clone spec has a placement but no cluster router is attached")

// OpResult is the common core of every domain-materializing operation —
// local clones, cross-host remote clones and migrations all embed it, so
// figures and harnesses report them through one code path.
type OpResult struct {
	// Children lists the domains the operation created, as IDs on the
	// platform they materialized on (a migration has exactly one).
	Children []DomID
	// Host is the cluster index of the platform the children landed on
	// (0 on a standalone machine).
	Host int
	// Total is the end-to-end operation latency on the virtual clock.
	Total vclock.Duration
	// TransferBytes counts bytes shipped across a host boundary: zero for
	// a local clone, the wire pages (after dedup) for a remote clone or a
	// migration.
	TransferBytes int64
}

// HostStats describes one cluster host to a placement policy.
type HostStats struct {
	// Host is the cluster index.
	Host int
	// Domains is the number of instances currently running there.
	Domains int
	// FreePages is the host pool's free frame count.
	FreePages int
	// WarmPages is how many of the parent image's stored pages the host's
	// snapshot cache already holds by content — the portion of a transfer
	// dedup would skip.
	WarmPages int
}

// Placement picks destination hosts for the children of one clone spec.
// Implementations must be deterministic: the same inputs must yield the
// same assignment.
type Placement interface {
	// Name identifies the policy in figures and logs.
	Name() string
	// Place returns one cluster host index per child (len n). parent is
	// the host the parent domain runs on; hosts describes every host in
	// cluster-index order, the parent's included.
	Place(n int, parent int, hosts []HostStats) []int
}

// CloneRouter executes placed clone specs across a cluster. Implemented
// by internal/cluster; attached with SetCloneRouter.
type CloneRouter interface {
	// RouteClone materializes the spec's children on the hosts its
	// placement picks, returning one CloneResult per destination host
	// group (the parent-local group first when present).
	RouteClone(ctx obs.OpCtx, spec CloneSpec) ([]*CloneResult, error)
}

// CloneSpec describes one clone request: the parent to clone, how many
// children, the population mode, and optionally where the children should
// land. The zero Caller is Dom0 (an externally triggered clone, e.g.
// fuzzing); guests forking themselves set Caller = Parent.
type CloneSpec struct {
	// Caller is the domain invoking the CLONEOP hypercall.
	Caller DomID
	// Parent is the domain being cloned.
	Parent DomID
	// Count is the number of children to create (>= 1).
	Count int
	// Mode selects eager or lazy child population.
	Mode CloneMode
	// Placement, when non-nil, routes children across the cluster through
	// the attached CloneRouter; nil keeps them on this platform.
	Placement Placement
}

// SetCloneRouter attaches the cluster router placed clone specs are
// executed through; nil detaches it.
func (p *Platform) SetCloneRouter(r CloneRouter) {
	p.mu.Lock()
	p.router = r
	p.mu.Unlock()
}

func (p *Platform) cloneRouter() CloneRouter {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.router
}

// CloneOp is the clone entry point: one OpCtx-first surface for a local
// fork and the cluster remote-clone path. Several parents fork with one
// CloneOp each, one after the other. A first-stage failure part-way
// through returns the children built before it, already served, together
// with the error.
//
//   - A spec without a placement runs the complete two-stage pipeline on
//     this platform. The recorded span tree is
//
//     clone-op → clone-request (first stage) + parent-paused → second-stage
//
//     with parent-paused covering the daemon's work — exactly the interval
//     the parent is frozen waiting for its children.
//
//   - A spec carrying a Placement is executed by the attached CloneRouter,
//     which returns one result per destination host group; with no router
//     attached it returns ErrNoRouter having created nothing.
//
// ctx carries the operation's meter, optional trace sink and fault scope;
// a ctx without a trace inherits the sink attached with Observe. Spans
// never charge the virtual clock, so observed and unobserved runs produce
// identical virtual-time results.
func (p *Platform) CloneOp(ctx obs.OpCtx, spec CloneSpec) ([]*CloneResult, error) {
	ctx = ctx.EnsureMeter(p.Costs)
	if ctx.Trace() == nil {
		if t := p.trace.Load(); t != nil {
			ctx = ctx.WithTrace(t)
		}
	}
	if spec.Placement != nil {
		router := p.cloneRouter()
		if router == nil {
			return nil, ErrNoRouter
		}
		return router.RouteClone(ctx, spec)
	}
	res, err := p.cloneOne(ctx, spec)
	if res == nil {
		return nil, err
	}
	return []*CloneResult{res}, err
}

// cloneOne runs one spec's two-stage pipeline on this platform: the first
// stage, then the daemon's Serve on the same goroutine. The last child
// Serve reports resumes the parent, so Done is closed by the time Serve
// returns.
func (p *Platform) cloneOne(ctx obs.OpCtx, spec CloneSpec) (*CloneResult, error) {
	meter := ctx.Meter()
	ctx, span := ctx.StartSpan("clone-op")
	start := meter.Elapsed()
	r := p.HV.Clone(hv.CloneRequest{Caller: spec.Caller, Target: spec.Parent,
		N: spec.Count, CopyRing: true, Mode: spec.Mode, Ctx: ctx})
	if r.Err != nil && len(r.Children) == 0 {
		span.End()
		return nil, r.Err
	}
	kids, stats := r.Children, r.Stats
	secondStart := meter.Elapsed()
	pctx, pspan := ctx.StartSpan("parent-paused")
	_, serveErr := p.Cloned.Serve(pctx)
	// Failed children are aborted, which releases their references too, so
	// the parent has resumed either way. A first stage that stopped part-way
	// resumed it already and has no Done to wait on.
	if r.Err == nil {
		<-r.Done
	}
	pspan.End()
	span.End()
	res := &CloneResult{
		OpResult:    OpResult{Total: meter.Elapsed() - start},
		FirstStage:  stats.FirstStage,
		SecondStage: meter.Elapsed() - secondStart,
		Stats:       stats,
	}
	p.settle(res, kids)
	if r.Err != nil {
		return res, fmt.Errorf("core: clone of %d: first stage stopped after %d of %d children: %w",
			spec.Parent, len(kids), spec.Count, errors.Join(r.Err, serveErr))
	}
	if serveErr != nil {
		return res, fmt.Errorf("core: clone of %d: %d of %d children failed: %w",
			spec.Parent, len(res.Failed), len(kids), serveErr)
	}
	return res, nil
}

// settle partitions a request's first-stage children by their second-stage
// outcome: aborted ones are reported as Failed, the rest as Children.
func (p *Platform) settle(res *CloneResult, kids []DomID) {
	for _, k := range kids {
		if out, ok := p.HV.CloneOutcome(k); ok && out == hv.OutcomeAborted {
			res.Failed = append(res.Failed, k)
			continue
		}
		res.Children = append(res.Children, k)
	}
}
