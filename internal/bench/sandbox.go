package bench

import (
	"bytes"
	"fmt"
	"slices"

	"nephele/internal/core"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// sandboxDirtySectors is how many disk sectors each sandbox writes before
// its dirty blocks are committed back out.
const sandboxDirtySectors = 16

// sandboxTemplate boots a memoryMB template guest, dirties its first
// dirtyPages pages, then snapshots it.
func sandboxTemplate(p *core.Platform, memoryMB, dirtyPages int) (*toolstack.Image, error) {
	dcfg := toolstack.DomainConfig{
		Name:      "sandbox-template",
		MemoryMB:  memoryMB,
		VCPUs:     1,
		MaxClones: 1 << 20,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
		Vbds:      []toolstack.VbdConfig{{}},
	}
	rec, err := p.Boot(dcfg, nil)
	if err != nil {
		return nil, err
	}
	dom, err := p.HV.Domain(rec.ID)
	if err != nil {
		return nil, err
	}
	sp := dom.Space()
	payload := bytes.Repeat([]byte{0x5a}, mem.PageSize)
	for i := 0; i < dirtyPages; i++ {
		pfn := mem.PFN(i)
		if int(pfn) >= dcfg.Pages()-3 {
			break
		}
		payload[0] = byte(i)
		if err := sp.WriteOp(obs.OpCtx{}, pfn, 0, payload); err != nil {
			return nil, err
		}
	}
	img, err := p.XL.Save(rec.ID, nil)
	if err != nil {
		return nil, err
	}
	if err := p.Destroy(rec.ID, nil); err != nil {
		return nil, err
	}
	return img, nil
}

// percentile picks the q-quantile (0..1) of a sorted duration slice.
func percentile(sorted []vclock.Duration, q float64) vclock.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

// figSandbox regenerates the sandbox-fleet figure: short-lived per-task
// VMs spawned from a content-addressed snapshot cache (the
// E2B/Firecracker serverless-sandbox pattern layered over Nephele's
// sharing machinery). For each fleet size, one cold restore populates the
// cache and the rest of the fleet restores warm, each sandbox writing a
// few disk sectors and committing its dirty blocks before being
// destroyed. Reported are the cold restore latency, the warm p50/p99, and
// the frames the cache handed out by COW instead of copying.
func figSandbox(quick bool, _ *obs.Trace) (*Figure, error) {
	fleets, memoryMB, dirtyPages := []int{4, 8, 16, 32, 64}, 64, 4096
	if quick {
		fleets, memoryMB, dirtyPages = []int{4, 16}, 16, 1024
	}
	fig := &Figure{
		ID:     "sandbox",
		Title:  "Sandbox fleet from content-addressed snapshot cache",
		XLabel: "fleet size",
		YLabel: "milliseconds",
	}
	var cold, p50, p99, shared Series
	cold.Name = "cold-restore-ms"
	p50.Name = "warm-restore-p50-ms"
	p99.Name = "warm-restore-p99-ms"
	shared.Name = "adopted-frames-x1000"

	for _, fleet := range fleets {
		p := core.NewPlatform(core.Options{SkipNameCheck: true})
		img, err := sandboxTemplate(p, memoryMB, dirtyPages)
		if err != nil {
			return nil, fmt.Errorf("sandbox template: %w", err)
		}
		store := p.NewImageStore(0)

		var coldLat vclock.Duration
		warm := make([]vclock.Duration, 0, fleet-1)
		sector := bytes.Repeat([]byte{0xc3}, 512)
		for i := 0; i < fleet; i++ {
			meter := p.NewMeter()
			rec, served, err := p.XL.RestoreCachedOp(obs.Ctx(meter), store, img, fmt.Sprintf("sbx-%d-%d", fleet, i))
			if err != nil {
				return nil, fmt.Errorf("sandbox restore %d/%d: %w", i, fleet, err)
			}
			lat := meter.Elapsed()
			if i == 0 {
				if served {
					return nil, fmt.Errorf("sandbox: first restore hit a cold cache")
				}
				coldLat = lat
			} else {
				if !served {
					return nil, fmt.Errorf("sandbox: restore %d missed a warm cache", i)
				}
				warm = append(warm, lat)
			}
			// The sandbox runs its task: write scratch blocks, then the
			// manager commits the dirty view and tears the sandbox down.
			vbd, err := p.Backends.Vbd.Vbd(uint32(rec.ID), 0)
			if err != nil {
				return nil, err
			}
			for s := 0; s < sandboxDirtySectors; s++ {
				if err := vbd.WriteSector(obs.OpCtx{}, uint64(s), sector); err != nil {
					return nil, err
				}
			}
			if secs, _ := vbd.Modified(); len(secs) != sandboxDirtySectors {
				return nil, fmt.Errorf("sandbox: committed %d sectors, want %d", len(secs), sandboxDirtySectors)
			}
			if err := p.Destroy(rec.ID, nil); err != nil {
				return nil, err
			}
		}
		slices.Sort(warm)
		x := float64(fleet)
		cold.Points = append(cold.Points, Point{X: x, Y: ms(coldLat)})
		p50.Points = append(p50.Points, Point{X: x, Y: ms(percentile(warm, 0.50))})
		p99.Points = append(p99.Points, Point{X: x, Y: ms(percentile(warm, 0.99))})
		st := store.Stats()
		shared.Points = append(shared.Points, Point{X: x, Y: float64(st.AdoptedFrames) / 1000})

		if fleet == fleets[len(fleets)-1] {
			speedup := 0.0
			if w := percentile(warm, 0.50); w > 0 {
				speedup = float64(coldLat) / float64(w)
			}
			fig.Summary = append(fig.Summary,
				fmt.Sprintf("fleet %d: cold %.3f ms, warm p50 %.3f ms, p99 %.3f ms (%.1fx)",
					fleet, ms(coldLat), ms(percentile(warm, 0.50)), ms(percentile(warm, 0.99)), speedup),
				fmt.Sprintf("cache: %d hit / %d miss, %d resident pages in %d chunks, %d frames adopted",
					st.Hits, st.Misses, st.ResidentPages, st.Chunks, st.AdoptedFrames),
			)
		}
	}
	fig.Series = append(fig.Series, cold, p50, p99, shared)
	return fig, nil
}
