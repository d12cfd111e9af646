// Cross-host clone-over-migrate on a simulated cluster. Four machines are
// joined by a full mesh of bonded links; a worker boots on host 0, dirties
// some state, and is fanned out across the cluster with one CloneOp — the
// parent-local child is a true COW clone, the remote ones are snapshotted
// (the parent never pauses), shipped over the interconnect with chunk
// dedup against each receiver's snapshot cache, and materialized through
// the cached-restore path. A second fan-out hits dedup-warm caches and
// ships headers only. Per-host vector clocks order the cross-host work the
// way the in-host meter merge orders sibling clones.
package main

import (
	"fmt"
	"log"

	"nephele/internal/cluster"
	"nephele/internal/core"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

func main() {
	c := cluster.New(cluster.Options{Hosts: 4, LinkWidth: 2})
	h0 := c.Host(0)

	rec, err := h0.P.Boot(toolstack.DomainConfig{
		Name:      "worker",
		MemoryMB:  16,
		VCPUs:     1,
		MaxClones: 64,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 5}}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	dom, _ := h0.P.HV.Domain(rec.ID)
	for pfn := 0; pfn < 1024; pfn += 2 {
		if err := dom.Space().WriteOp(obs.OpCtx{}, mem.PFN(pfn), 0, []byte{0xAB, byte(pfn)}); err != nil {
			log.Fatal(err)
		}
	}

	fanOut := func(label string) {
		meter := h0.P.NewMeter()
		results, err := h0.P.CloneOp(obs.Ctx(meter), core.CloneSpec{
			Caller: rec.ID, Parent: rec.ID, Count: 4,
			Placement: cluster.Spread{},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s fan-out in %v (virtual):\n", label, meter.Elapsed())
		for _, res := range results {
			kind := "remote clone"
			if res.Host == 0 {
				kind = "local COW clone"
			}
			fmt.Printf("  host %d: %d child(ren) via %-15s %8d KiB on the wire, group latency %v\n",
				res.Host, len(res.Children), kind, res.TransferBytes>>10, res.Total)
		}
	}
	fanOut("cold")
	fanOut("dedup-warm")

	fmt.Println("\nvector clocks after both rounds:")
	for i := 0; i < c.Hosts(); i++ {
		fmt.Printf("  host %d: %s\n", i, c.Host(i).VC)
	}
	xfers := c.Metrics().Counter("cluster.xfers").Value()
	sent := c.Metrics().Counter("cluster.xfer_pages").Value()
	dedup := c.Metrics().Counter("cluster.dedup_pages").Value()
	fmt.Printf("\ninterconnect: %d transfers, %d pages on the wire, %d pages deduplicated\n",
		xfers, sent, dedup)
}
