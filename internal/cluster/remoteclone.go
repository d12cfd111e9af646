package cluster

import (
	"errors"
	"fmt"

	"nephele/internal/core"
	"nephele/internal/fault"
	"nephele/internal/fnv1a"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// Errors of the routed clone path.
var (
	// ErrBadPlacement reports a placement that returned a malformed
	// assignment (wrong length or a host index outside the cluster).
	ErrBadPlacement = errors.New("cluster: placement returned a malformed assignment")
)

// routeClone executes one placed CloneSpec originating on host src.
//
// Pipeline (span remote-clone):
//
//	snapshot    — XL.Save of the running parent (no pause),
//	placement   — Place over every host's domain count (pure, no span),
//	local group — children placed on src are true COW clones via CloneOp,
//	remote group(s) — per destination host, ascending: plan the transfer
//	    over the bonded link with chunk dedup against the receiver's
//	    cache, charge Xfer* costs, commit, then materialize every child
//	    through the receiver's cached-restore path.
//
// One CloneResult is returned per destination host group, the parent-local
// group first when present. Vector clocks move only on success: the
// sender ticks its own component by the send-side elapsed time, the
// receiver merges the sender's vector and ticks its own component by the
// materialize elapsed time — the cross-host image of the meter-merge
// discipline.
func (c *Cluster) routeClone(ctx obs.OpCtx, src int, spec core.CloneSpec) ([]*core.CloneResult, error) {
	if src < 0 || src >= len(c.hosts) {
		return nil, fmt.Errorf("%w: source host %d of %d", netsim.ErrBadHost, src, len(c.hosts))
	}
	if spec.Count < 1 {
		return nil, fmt.Errorf("cluster: clone of %d children", spec.Count)
	}
	srcHost := c.hosts[src]
	ctx = ctx.EnsureMeter(srcHost.P.Costs)
	ctx, span := ctx.StartSpan("remote-clone")
	defer span.End()
	meter := ctx.Meter()

	// Snapshot the parent. Save reads the running domain's memory — the
	// parent is never paused by a remote clone, which is the whole point
	// of clone-over-migrate.
	img, err := snapshot(ctx, srcHost, spec.Parent)
	if err != nil {
		return nil, err
	}

	dests := spec.Placement.Place(spec.Count, c.domainCounts())
	if len(dests) != spec.Count {
		return nil, fmt.Errorf("%w: %s placed %d children, want %d",
			ErrBadPlacement, spec.Placement.Name(), len(dests), spec.Count)
	}
	counts := make([]int, len(c.hosts))
	for _, d := range dests {
		if d < 0 || d >= len(c.hosts) {
			return nil, fmt.Errorf("%w: %s placed a child on host %d of %d",
				ErrBadPlacement, spec.Placement.Name(), d, len(c.hosts))
		}
		counts[d]++
	}

	var out []*core.CloneResult
	var errs []error

	// Parent-local group first: a true two-stage COW clone, no image in
	// the path at all.
	if counts[src] > 0 {
		lspec := spec
		lspec.Count = counts[src]
		lspec.Placement = nil
		lstart := meter.Elapsed()
		res, lerr := srcHost.P.CloneOp(ctx, lspec)
		for _, r := range res {
			r.Host = src
			out = append(out, r)
		}
		if lerr != nil {
			errs = append(errs, lerr)
		} else {
			srcHost.VC.Tick(src, meter.Elapsed()-lstart)
			c.ctr.localClones.Add(int64(counts[src]))
		}
	}

	var chunks []netsim.Chunk // the same for every destination
	for dst := 0; dst < len(c.hosts); dst++ {
		if dst == src || counts[dst] == 0 {
			continue
		}
		if chunks == nil {
			chunks = chunksOf(img)
		}
		res, rerr := c.remoteClone(ctx, srcHost, c.hosts[dst], img, chunks, counts[dst], "")
		if res != nil {
			out = append(out, res)
		}
		if rerr != nil {
			errs = append(errs, rerr)
		}
	}
	return out, errors.Join(errs...)
}

// snapshot saves domain id of host h (span snapshot).
func snapshot(ctx obs.OpCtx, h *Host, id core.DomID) (*toolstack.Image, error) {
	sctx, sspan := ctx.StartSpan("snapshot")
	defer sspan.End()
	img, err := h.P.XL.Save(id, sctx.Meter())
	if err != nil {
		return nil, fmt.Errorf("cluster: snapshot of %d on host %d: %w", id, h.Index, err)
	}
	return img, nil
}

// domainCounts returns every host's running domain count, in cluster index
// order: the one input a placement reads.
func (c *Cluster) domainCounts() []int {
	domains := make([]int, len(c.hosts))
	for i, h := range c.hosts {
		domains[i] = h.P.XL.Count()
	}
	return domains
}

// remoteClone ships img, whose transfer chunks are chunks (chunksOf), from
// src to dst over the fabric and materializes n children there, under
// cluster-unique derived names — or, for the one child of a migration,
// under the given name. The transfer is planned chunk-by-chunk against the
// receiver's cache (dedup'd chunks travel as a header only), charged as
// XferSetup + XferChunk×chunks + XferPage×(busiest bonded slave), and
// committed only after the cluster/xfer fault point passes — an aborted
// transfer leaves no child, no link-counter movement, no store change and
// no vector-clock movement. Materialization restores every child through
// the receiver's cached-restore path: the first child of a cold receiver
// populates its cache, every later child COW-shares it. Children always
// materialize fully populated: lazy fill is a local-clone concern.
func (c *Cluster) remoteClone(ctx obs.OpCtx, src, dst *Host, img *toolstack.Image, chunks []netsim.Chunk, n int, name string) (*core.CloneResult, error) {
	meter := ctx.Meter()
	start := meter.Elapsed()

	link, err := c.fabric.Link(src.Index, dst.Index)
	if err != nil {
		return nil, err
	}

	plan, err := func() (netsim.TransferPlan, error) {
		xctx, xspan := ctx.StartSpan("xfer")
		defer xspan.End()
		plan := link.Plan(chunks, func(ch netsim.Chunk) bool {
			return dst.Store.HasChunk(ch.Hash)
		})
		m := xctx.Meter()
		costs := src.P.Costs
		m.Charge(costs.XferSetup, 1)
		m.Charge(costs.XferChunk, plan.Chunks)
		m.Charge(costs.XferPage, plan.MaxSlavePages)
		if err := c.faults.Check(fault.PointClusterXfer); err != nil {
			return plan, fmt.Errorf("cluster: xfer %d->%d: %w", src.Index, dst.Index, err)
		}
		link.Commit(plan)
		return plan, nil
	}()
	if err != nil {
		return nil, err
	}
	c.ctr.xfers.Inc()
	c.ctr.xferPages.Add(int64(plan.Pages))
	c.ctr.dedupPages.Add(int64(plan.DedupPages))
	sendElapsed := meter.Elapsed() - start

	children, err := func() ([]core.DomID, error) {
		mctx, mspan := ctx.StartSpan("materialize")
		defer mspan.End()
		if err := c.faults.Check(fault.PointClusterMaterialize); err != nil {
			return nil, fmt.Errorf("cluster: materialize on host %d: %w", dst.Index, err)
		}
		kids := make([]core.DomID, 0, n)
		for i := 0; i < n; i++ {
			childName := name
			if childName == "" {
				childName = c.childName(img.Config.Name, dst.Index)
			}
			rec, cached, rerr := dst.P.XL.RestoreCachedOp(mctx, dst.Store, img, childName)
			if rerr != nil {
				// Roll back the half-materialized group: no child of a
				// failed group survives.
				for _, k := range kids {
					dst.P.XL.Destroy(k, nil)
				}
				return nil, fmt.Errorf("cluster: materialize child %d/%d on host %d: %w",
					i+1, n, dst.Index, rerr)
			}
			if cached {
				c.ctr.materializeWarm.Inc()
			} else {
				c.ctr.materializeCold.Inc()
			}
			kids = append(kids, rec.ID)
		}
		return kids, nil
	}()
	if err != nil {
		return nil, err
	}

	// Cross-host time: sender ticks its own component by the send side,
	// the receiver absorbs the sender's vector (componentwise max) and
	// then ticks its own component by the materialize side — exactly the
	// absorb-then-add shape of the in-host meter merge.
	src.VC.Tick(src.Index, sendElapsed)
	dst.VC.Merge(src.VC.Snapshot())
	dst.VC.Tick(dst.Index, meter.Elapsed()-start-sendElapsed)
	c.ctr.remoteClones.Add(int64(n))

	return &core.CloneResult{
		Children:      children,
		Host:          dst.Index,
		Total:         meter.Elapsed() - start,
		TransferBytes: int64(plan.Pages) * mem.PageSize,
	}, nil
}

// chunksOf maps an image's runs onto transfer chunks: data runs ship
// their stored pages under their content hash (the dedup identity and the
// bonded-slave selector), zero and alias runs travel as a header only.
func chunksOf(img *toolstack.Image) []netsim.Chunk {
	infos := img.RunInfos()
	chunks := make([]netsim.Chunk, 0, len(infos))
	for _, ri := range infos {
		if ri.Kind == toolstack.RunData {
			chunks = append(chunks, netsim.Chunk{Hash: ri.Hash, Pages: ri.StoredPages})
			continue
		}
		chunks = append(chunks, netsim.Chunk{Hash: headerHash(ri), Pages: 0})
	}
	return chunks
}

// headerHash derives a deterministic chunk identity for a pageless run
// from its geometry (FNV-1a over start, count, kind).
func headerHash(ri toolstack.RunInfo) uint64 {
	h := fnv1a.Uint64(fnv1a.Offset, uint64(ri.Start))
	h = fnv1a.Uint64(h, uint64(ri.Count))
	return fnv1a.Uint64(h, uint64(ri.Kind))
}
