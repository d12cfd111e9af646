package bench

import (
	"fmt"

	"nephele/internal/cluster"
	"nephele/internal/core"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// clusterLinkWidth is the bonded slave count of every inter-host link.
const clusterLinkWidth = 2

// clusterFanOut builds an n-host cluster, boots one parent on host 0 and
// remote-clones it to every other host twice: once against cold receiver
// caches (the full image crosses every link) and once dedup-warm (every
// data chunk is already resident on every receiver, so only headers move
// and children materialize by COW-adopting cache frames). It returns the
// two fan-out latencies and the cold pass's wire pages.
func clusterFanOut(hosts, guestMB int) (cold, warm vclock.Duration, wirePages int64, err error) {
	c := cluster.New(cluster.Options{
		Hosts:     hosts,
		LinkWidth: clusterLinkWidth,
		Platform:  core.Options{SkipNameCheck: true},
	})
	h0 := c.Host(0)
	cfg := miniOSUDP("cluster-parent")
	cfg.MemoryMB = guestMB
	cfg.MaxClones = 4 * hosts
	rec, err := h0.P.Boot(cfg, nil)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("figcluster boot: %w", err)
	}
	dom, err := h0.P.HV.Domain(rec.ID)
	if err != nil {
		return 0, 0, 0, err
	}
	// Dirty a quarter of the guest so the image carries real data runs.
	pages := guestMB << 20 / mem.PageSize
	for pfn := 0; pfn < pages; pfn += 4 {
		if werr := dom.Space().WriteOp(obs.OpCtx{}, mem.PFN(pfn), 0, []byte{0xA5, byte(pfn)}); werr != nil {
			return 0, 0, 0, werr
		}
	}

	fanOut := func() (vclock.Duration, error) {
		meter := h0.P.NewMeter()
		_, cerr := h0.P.CloneOp(obs.Ctx(meter), core.CloneSpec{
			Caller: rec.ID, Parent: rec.ID, Count: hosts - 1,
			Placement: cluster.Spread{},
		})
		return meter.Elapsed(), cerr
	}
	if cold, err = fanOut(); err != nil {
		return 0, 0, 0, fmt.Errorf("figcluster cold fan-out: %w", err)
	}
	wirePages = c.Metrics().Counter("cluster.xfer_pages").Value()
	if warm, err = fanOut(); err != nil {
		return 0, 0, 0, fmt.Errorf("figcluster warm fan-out: %w", err)
	}
	return cold, warm, wirePages, nil
}

// figCluster regenerates the cross-host scale-out figure (`nephele-bench
// -fig cluster`): total virtual time to fan one running parent out to n-1
// peer hosts of an n-host cluster, for cold receiver caches versus
// dedup-warm ones. The parent never pauses (the snapshot reads the running
// domain), so the whole figure is clone-over-migrate; the warm line
// isolates the interconnect's share, because a warm receiver moves chunk
// headers only and materializes children by COW-adopting its cache
// frames.
func figCluster(quick bool, _ *obs.Trace) (*Figure, error) {
	// 64 MB guests keep the per-page work (wire time, copying restore)
	// dominant over the fixed create cost every materialized child pays,
	// so the dedup-warm line separates cleanly from the cold one.
	hostCounts, guestMB := []int{2, 4, 8, 16}, 64
	if quick {
		hostCounts, guestMB = []int{2, 4}, 16
	}
	fig := &Figure{
		ID:     "figcluster",
		Title:  fmt.Sprintf("Cross-host clone scale-out, %d MB guest, %d-wide bonded links", guestMB, clusterLinkWidth),
		XLabel: "cluster hosts",
		YLabel: "fan-out latency (ms, virtual)",
	}
	var coldS, warmS Series
	coldS.Name = "cold receiver caches"
	warmS.Name = "dedup-warm receiver caches"
	var lastCold, lastWarm vclock.Duration
	var lastWire int64
	for _, hosts := range hostCounts {
		cold, warm, wire, err := clusterFanOut(hosts, guestMB)
		if err != nil {
			return nil, err
		}
		coldS.Points = append(coldS.Points, Point{X: float64(hosts), Y: ms(cold)})
		warmS.Points = append(warmS.Points, Point{X: float64(hosts), Y: ms(warm)})
		lastCold, lastWarm, lastWire = cold, warm, wire
	}
	fig.Series = []Series{coldS, warmS}

	n := hostCounts[len(hostCounts)-1]
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("%d hosts: cold fan-out %.3f ms vs dedup-warm %.3f ms (%.1fx)",
			n, ms(lastCold), ms(lastWarm), float64(lastCold)/float64(lastWarm)),
		fmt.Sprintf("cold pass wire traffic at %d hosts: %d pages (%d KiB); warm pass ships headers only",
			n, lastWire, lastWire*int64(mem.PageSize)>>10),
		"parent runs through every fan-out: remote clone never pauses the source (clone-over-migrate)",
	)
	return fig, nil
}
