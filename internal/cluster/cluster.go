// Package cluster extends the single-machine platform to a simulated
// multi-host deployment: n independent core.Platforms connected by a
// netsim.Fabric of bonded inter-host links, each host holding its own
// content-addressed snapshot cache and a vector clock component.
//
// The package implements core.CloneRouter: a CloneSpec carrying a
// Placement is routed here, where the parent is snapshotted (the domain
// keeps running — Save needs no pause), the image shipped over the
// simulated interconnect with chunk-level dedup against the receiver's
// ImageStore, and the children materialized on the peer through the
// cached-restore path (first child cold-populates the receiver's cache,
// the rest COW-share it). Virtual time crosses hosts the way the meter
// merge does inside one host: the sender ticks its own vector component,
// the receiver merges (componentwise max) and then ticks its own.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"nephele/internal/core"
	"nephele/internal/fault"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// Options configures a simulated cluster.
type Options struct {
	// Hosts is the machine count (default 2).
	Hosts int
	// LinkWidth is the bonded slave count of every inter-host link
	// (default 2, minimum 1).
	LinkWidth int
	// CacheMB bounds each host's snapshot cache resident set
	// (0 = unbounded).
	CacheMB int
	// Platform configures every host's platform identically.
	Platform core.Options
}

// Host is one machine of the cluster: a full platform plus the
// cluster-level state hanging off it.
type Host struct {
	// Index is the host's cluster index.
	Index int
	// P is the host's platform.
	P *core.Platform
	// Store is the host's content-addressed snapshot cache; remote clones
	// dedup their transfer against it and materialize through it.
	Store *toolstack.ImageStore
	// VC is the host's vector clock: one component per cluster host,
	// advanced only by routed cross-host operations.
	VC *vclock.Vector
}

// Cluster is a set of simulated hosts joined by a full-mesh fabric.
type Cluster struct {
	hosts   []*Host
	fabric  *netsim.Fabric
	metrics *obs.Registry
	ctr     counters
	nameSeq atomic.Int64

	mu     sync.Mutex
	faults *fault.Registry
}

// counters are the cluster.* instruments of the routed clone path,
// resolved once by New.
type counters struct {
	localClones, remoteClones        *obs.Counter
	xfers, xferPages, dedupPages     *obs.Counter
	materializeWarm, materializeCold *obs.Counter
}

// New builds a cluster of opts.Hosts identical platforms and attaches a
// clone router to each, so placed CloneSpecs on any member platform route
// through the cluster.
func New(opts Options) *Cluster {
	n := opts.Hosts
	if n < 1 {
		n = 2
	}
	width := opts.LinkWidth
	if width < 1 {
		width = 2
	}
	reg := obs.NewRegistry()
	c := &Cluster{
		fabric:  netsim.NewFabric(n, width),
		metrics: reg,
		ctr: counters{
			localClones:     reg.Counter("cluster.local_clones"),
			remoteClones:    reg.Counter("cluster.remote_clones"),
			xfers:           reg.Counter("cluster.xfers"),
			xferPages:       reg.Counter("cluster.xfer_pages"),
			dedupPages:      reg.Counter("cluster.dedup_pages"),
			materializeWarm: reg.Counter("cluster.materialize_warm"),
			materializeCold: reg.Counter("cluster.materialize_cold"),
		},
	}
	for i := 0; i < n; i++ {
		p := core.NewPlatform(opts.Platform)
		h := &Host{
			Index: i,
			P:     p,
			Store: p.NewImageStore(opts.CacheMB),
			VC:    vclock.NewVector(n),
		}
		p.SetCloneRouter(&hostRouter{c: c, src: i})
		c.hosts = append(c.hosts, h)
	}
	return c
}

// Hosts reports the cluster's machine count.
func (c *Cluster) Hosts() int { return len(c.hosts) }

// Host returns the i'th machine.
func (c *Cluster) Host(i int) *Host { return c.hosts[i] }

// Fabric exposes the simulated interconnect (link stats for figures).
func (c *Cluster) Fabric() *netsim.Fabric { return c.fabric }

// Metrics is the cluster-level registry (cluster.* counters); per-host
// platform metrics stay on each Host.P.Metrics().
func (c *Cluster) Metrics() *obs.Registry { return c.metrics }

// SetFaults arms fault injection across the cluster: the two cluster
// points (cluster/xfer, cluster/materialize) plus every member platform's
// own points. Passing nil disarms everywhere.
func (c *Cluster) SetFaults(r *fault.Registry) {
	c.mu.Lock()
	c.faults = r
	c.mu.Unlock()
	for _, h := range c.hosts {
		h.P.SetFaults(r)
		h.Store.SetFaults(r)
	}
}

func (c *Cluster) faultReg() *fault.Registry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.faults
}

// childName derives a cluster-unique domain name for a remotely
// materialized child.
func (c *Cluster) childName(base string, host int) string {
	return fmt.Sprintf("%s@h%d.%d", base, host, c.nameSeq.Add(1))
}

// hostRouter adapts one member platform to the cluster: it remembers
// which host the routed spec originates on.
type hostRouter struct {
	c   *Cluster
	src int
}

// RouteClone implements core.CloneRouter for the member platform at
// index src.
func (r *hostRouter) RouteClone(ctx obs.OpCtx, spec core.CloneSpec) ([]*core.CloneResult, error) {
	return r.c.routeClone(ctx, r.src, spec)
}
