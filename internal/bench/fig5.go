package bench

import (
	"errors"
	"fmt"

	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/obs"
)

// fig5Platform builds a machine with hypBytes of hypervisor memory.
func fig5Platform(hypBytes uint64) *core.Platform {
	return core.NewPlatform(core.Options{
		MemoryBytes:   hypBytes,
		SkipNameCheck: true,
	})
}

// fig5 regenerates Figure 5 (§6.2): free memory (hypervisor and Dom0)
// versus the number of instances, for booting separate VMs and for cloning
// one VM, each until the hypervisor runs out of memory.
func fig5(quick bool, _ *obs.Trace) (*Figure, error) {
	// The paper's 16 GB machine: 12 GB hypervisor pool, 4 GB Dom0.
	hypBytes, dom0Bytes, every := uint64(12<<30), uint64(4<<30), 100
	if quick {
		hypBytes, dom0Bytes, every = 2<<30, 1<<30, 200
	}
	fig := &Figure{
		ID:     "fig5",
		Title:  "Memory consumption for booting vs. cloning",
		XLabel: "# of instances",
		YLabel: "free memory (GB)",
	}
	gb := func(b uint64) float64 { return float64(b) / (1 << 30) }

	// --- booting ---
	bootP := fig5Platform(hypBytes)
	var bootHyp, bootDom0 Series
	bootHyp.Name = "Booting Hyp free"
	bootDom0.Name = "Booting Dom0 free"
	booted := 0
	for {
		rec, err := bootP.Boot(miniOSUDP(fmt.Sprintf("b-%d", booted)), nil)
		if err != nil {
			if errors.Is(err, mem.ErrOutOfMemory) {
				break
			}
			return nil, fmt.Errorf("fig5 boot %d: %w", booted, err)
		}
		if _, err := guest.Boot(bootP, rec, guest.FlavorMiniOS, nil); err != nil {
			return nil, err
		}
		booted++
		if booted%every == 0 || booted == 1 {
			m := bootP.Memory()
			bootHyp.Points = append(bootHyp.Points, Point{X: float64(booted), Y: gb(m.HypFreeBytes)})
			bootDom0.Points = append(bootDom0.Points, Point{X: float64(booted), Y: gb(dom0Bytes - m.Dom0UsedBytes)})
		}
	}

	// --- cloning ---
	cloneP := fig5Platform(hypBytes)
	var cloneHyp, cloneDom0 Series
	cloneHyp.Name = "Cloning Hyp free"
	cloneDom0.Name = "Cloning Dom0 free"
	rec, err := cloneP.Boot(miniOSUDP("clone-parent"), nil)
	if err != nil {
		return nil, err
	}
	k, err := guest.Boot(cloneP, rec, guest.FlavorMiniOS, nil)
	if err != nil {
		return nil, err
	}
	cloned := 1 // the parent counts as an instance
	for {
		if _, err := k.Fork(obs.OpCtx{}, 1, nil); err != nil {
			if errors.Is(err, mem.ErrOutOfMemory) {
				break
			}
			return nil, fmt.Errorf("fig5 clone %d: %w", cloned, err)
		}
		cloned++
		if cloned%every == 0 || cloned == 2 {
			m := cloneP.Memory()
			cloneHyp.Points = append(cloneHyp.Points, Point{X: float64(cloned), Y: gb(m.HypFreeBytes)})
			cloneDom0.Points = append(cloneDom0.Points, Point{X: float64(cloned), Y: gb(dom0Bytes - m.Dom0UsedBytes)})
		}
	}

	fig.Series = []Series{bootDom0, bootHyp, cloneDom0, cloneHyp}

	perBootMB := float64(hypBytes) / (1 << 20) / float64(booted)
	perCloneMB := float64(hypBytes) / (1 << 20) / float64(cloned)
	saved := (float64(cloned-booted) * perBootMB) / 1024
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("booted instances: %d (paper: 2800)", booted),
		fmt.Sprintf("cloned instances: %d (paper: 8900)", cloned),
		fmt.Sprintf("density increase: %.1fx (paper: ~3x)", float64(cloned)/float64(booted)),
		fmt.Sprintf("memory per boot: %.1f MB (paper: ~4 MB + overheads)", perBootMB),
		fmt.Sprintf("memory per clone: %.1f MB, of which 1 MB is the RX ring (paper: 1.6 MB)", perCloneMB),
		fmt.Sprintf("estimated total memory saved: %.0f GB (paper: 21 GB)", saved),
	)
	return fig, nil
}
