package cluster

import (
	"errors"
	"fmt"

	"nephele/internal/core"
	"nephele/internal/obs"
)

// Migration errors.
var (
	ErrMigrateClone = errors.New("cluster: refusing to migrate a clone-family member (would break page sharing)")
	ErrMigrateSelf  = errors.New("cluster: source and target are the same host")
)

// Migrate moves the running domain id from host src to host dst under name
// ("" keeps the source's name) — what §5.2 keeps the p2m map for: the target
// rebuilds the page table from the image's guest-physical layout.
//
// It is a remote clone of one followed by the source's destruction, with
// the source paused throughout (stop-and-copy): the transfer dedups against
// the target's cache, cluster/xfer and cluster/materialize can fail it, and
// the vector clocks move as for any remote clone. On any failure the source
// is unpaused and nothing is left on the target. Clone-family members are
// refused (§8: moving them apart would break page sharing).
//
// The result's Children[0] is the domain's ID on dst; Total covers pause to
// source destruction, so it is also the guest's downtime.
func (c *Cluster) Migrate(ctx obs.OpCtx, src int, id core.DomID, dst int, name string) (*core.CloneResult, error) {
	if src == dst {
		return nil, ErrMigrateSelf
	}
	if _, err := c.fabric.Link(src, dst); err != nil {
		return nil, err
	}
	from, to := c.hosts[src], c.hosts[dst]
	dom, err := from.P.HV.Domain(id)
	if err != nil {
		return nil, err
	}
	if _, isClone := dom.Parent(); isClone || len(dom.Children()) > 0 {
		return nil, fmt.Errorf("%w: domain %d", ErrMigrateClone, id)
	}
	ctx = ctx.EnsureMeter(from.P.Costs)
	ctx, span := ctx.StartSpan("migrate")
	defer span.End()
	meter := ctx.Meter()
	start := meter.Elapsed()

	if err := from.P.HV.Pause(id); err != nil {
		return nil, err
	}
	img, err := snapshot(ctx, from, id)
	if err != nil {
		from.P.HV.Unpause(id)
		return nil, err
	}
	if name == "" {
		name = img.Config.Name
	}
	res, err := c.remoteClone(ctx, from, to, img, 1, name)
	if err != nil {
		from.P.HV.Unpause(id)
		return nil, err
	}
	if err := from.P.XL.Destroy(id, meter); err != nil {
		to.P.XL.Destroy(res.Children[0], nil)
		from.P.HV.Unpause(id)
		return nil, fmt.Errorf("cluster: migrate %d: destroy source: %w", id, err)
	}
	res.Total = meter.Elapsed() - start
	return res, nil
}
