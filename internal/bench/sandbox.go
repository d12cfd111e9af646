package bench

import (
	"bytes"
	"fmt"
	"sort"

	"nephele/internal/core"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// SandboxConfig tunes the sandbox-fleet experiment: short-lived per-task
// VMs spawned from a content-addressed snapshot cache (the E2B/Firecracker
// serverless-sandbox pattern layered over Nephele's sharing machinery).
type SandboxConfig struct {
	// FleetSizes are the sandbox counts swept on the X axis.
	FleetSizes []int
	// MemoryMB sizes each sandbox (the 4 MiB minimum by default).
	MemoryMB int
	// DirtyPages is how many memory pages the template dirties before
	// being snapshotted.
	DirtyPages int
	// DirtySectors is how many disk sectors each sandbox writes before
	// its dirty blocks are committed back out.
	DirtySectors int
}

// DefaultSandbox returns the standard sweep.
func DefaultSandbox() SandboxConfig {
	return SandboxConfig{
		FleetSizes:   []int{4, 8, 16, 32, 64},
		MemoryMB:     64,
		DirtyPages:   4096,
		DirtySectors: 16,
	}
}

// sandboxTemplate boots and dirties the template guest, then snapshots it.
func sandboxTemplate(p *core.Platform, cfg SandboxConfig) (*toolstack.Image, error) {
	dcfg := toolstack.DomainConfig{
		Name:      "sandbox-template",
		MemoryMB:  cfg.MemoryMB,
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
	for i := 0; i < cfg.DirtyPages; i++ {
		pfn := mem.PFN(i)
		if int(pfn) >= dcfg.Pages()-3 {
			break
		}
		payload[0] = byte(i)
		if err := sp.Write(pfn, 0, payload, nil); err != nil {
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

// Sandbox runs the fleet experiment: for each fleet size, one cold restore
// populates the cache and the rest of the fleet restores warm, each
// sandbox writing a few disk sectors and committing its dirty blocks
// before being destroyed. Reported are the cold restore latency, the warm
// p50/p99, and the frames the cache handed out by COW instead of copying.
func Sandbox(cfg SandboxConfig) (*Figure, error) {
	if len(cfg.FleetSizes) == 0 {
		cfg = DefaultSandbox()
	}
	if cfg.MemoryMB <= 0 {
		cfg.MemoryMB = 4
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

	for _, fleet := range cfg.FleetSizes {
		if fleet < 2 {
			return nil, fmt.Errorf("sandbox: fleet of %d (need >= 2 for a warm point)", fleet)
		}
		p := core.NewPlatform(core.Options{SkipNameCheck: true})
		img, err := sandboxTemplate(p, cfg)
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
			for s := 0; s < cfg.DirtySectors; s++ {
				if err := vbd.WriteSector(uint64(s), sector, nil); err != nil {
					return nil, err
				}
			}
			if secs, _ := vbd.Modified(); len(secs) != cfg.DirtySectors {
				return nil, fmt.Errorf("sandbox: committed %d sectors, want %d", len(secs), cfg.DirtySectors)
			}
			if err := p.Destroy(rec.ID, nil); err != nil {
				return nil, err
			}
		}
		sort.Slice(warm, func(i, j int) bool { return warm[i] < warm[j] })
		x := float64(fleet)
		cold.Points = append(cold.Points, Point{X: x, Y: ms(coldLat)})
		p50.Points = append(p50.Points, Point{X: x, Y: ms(percentile(warm, 0.50))})
		p99.Points = append(p99.Points, Point{X: x, Y: ms(percentile(warm, 0.99))})
		st := store.Stats()
		shared.Points = append(shared.Points, Point{X: x, Y: float64(st.AdoptedFrames) / 1000})

		if fleet == cfg.FleetSizes[len(cfg.FleetSizes)-1] {
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
