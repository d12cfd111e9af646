package bench

import (
	"fmt"

	"nephele/internal/core"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// figMultiParent regenerates the multi-parent clone figure, the FaaS/NGINX
// autoscaling scenario (§7) in which many independent services fork at
// once. For each parent count P it boots P independent guests on one
// machine, then runs rounds in which every parent forks one child with its
// own CloneOp, one parent after the other, and the children are destroyed
// between rounds. The figure reports the virtual first-stage latency per
// parent, flat across P, since each CloneOp charges only its own meter.
// Round throughput is host cost, which benchmark/ measures.
func figMultiParent(quick bool, _ *obs.Trace) (*Figure, error) {
	parentCounts, rounds := []int{1, 2, 4, 8}, 20
	if quick {
		parentCounts, rounds = []int{1, 4}, 5
	}
	fig := &Figure{
		ID:     "multiparent",
		Title:  "Multi-parent clone round throughput",
		XLabel: "# parents forking concurrently",
		YLabel: "milliseconds (virtual)",
	}
	var virt Series
	virt.Name = "first stage per parent (virtual ms)"

	for _, parents := range parentCounts {
		p := core.NewPlatform(core.Options{
			MemoryBytes:   2 << 30,
			SkipNameCheck: true,
		})
		specs := make([]core.CloneSpec, parents)
		for i := range specs {
			cfg := toolstack.DomainConfig{
				Name:      fmt.Sprintf("svc-%d", i),
				MemoryMB:  4,
				VCPUs:     1,
				MaxClones: 1 << 20,
				Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, byte(i + 1), 2}}},
			}
			rec, err := p.Boot(cfg, nil)
			if err != nil {
				return nil, fmt.Errorf("multiparent boot %d: %w", i, err)
			}
			specs[i] = core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1}
		}

		var firstStage float64
		clones := 0
		for round := 0; round < rounds; round++ {
			var kids []core.DomID
			for _, spec := range specs {
				results, err := p.CloneOp(obs.OpCtx{}, spec)
				if err != nil {
					return nil, fmt.Errorf("multiparent %d parents: %w", parents, err)
				}
				firstStage += ms(results[0].FirstStage)
				kids = append(kids, results[0].Children...)
			}
			for _, k := range kids {
				clones++
				if err := p.Destroy(k, nil); err != nil {
					return nil, fmt.Errorf("multiparent %d parents: %w", parents, err)
				}
			}
		}
		each := firstStage / float64(parents*rounds)
		virt.Points = append(virt.Points, Point{X: float64(parents), Y: each})
		fig.Summary = append(fig.Summary, fmt.Sprintf(
			"%d parents: %d clones, first stage %.3f ms virtual each", parents, clones, each))
	}
	fig.Series = []Series{virt}
	return fig, nil
}
