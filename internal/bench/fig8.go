package bench

import (
	"fmt"

	"nephele/internal/apps"
	"nephele/internal/cloned"
	"nephele/internal/core"
	"nephele/internal/devices"
	"nephele/internal/guest"
	"nephele/internal/obs"
	"nephele/internal/proc"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// fig8 regenerates Figure 8 (§7.1): second fork()/clone() duration and
// database saving time versus the number of database updates between the
// first and second save, for Redis running as a process in a Linux VM and
// as a Unikraft unikernel, both saving to a ramdisk-backed 9pfs share. The
// Unikraft clone values include the userspace operations (toolstack
// introduction + 9pfs cloning); network devices are skipped because the
// Redis clones do not need them.
func fig8(quick bool, _ *obs.Trace) (*Figure, error) {
	keyCounts := []int{0, 1, 10, 100, 1000, 10000, 100000, 1000000}
	if quick {
		keyCounts = []int{0, 1, 10, 100, 1000, 10000, 100000}
	}
	fig := &Figure{
		ID:     "fig8",
		Title:  "Redis database saving times",
		XLabel: "keys number",
		YLabel: "milliseconds",
	}
	var vmFork, vmSave, ukClone, ukSave, userOps Series
	vmFork.Name = "VM process fork"
	vmSave.Name = "VM process save"
	ukClone.Name = "Unikraft clone"
	ukSave.Name = "Unikraft save"
	userOps.Name = "userspace operations"

	for _, keys := range keyCounts {
		x := float64(keys)
		if x == 0 {
			x = 0.5 // log-axis placeholder, like the paper's 0 tick
		}

		pf, ps, err := fig8Process(keys)
		if err != nil {
			return nil, fmt.Errorf("fig8 process %d keys: %w", keys, err)
		}
		vmFork.Points = append(vmFork.Points, Point{X: x, Y: ms(pf)})
		vmSave.Points = append(vmSave.Points, Point{X: x, Y: ms(ps)})

		uc, us, uo, err := fig8Unikraft(keys)
		if err != nil {
			return nil, fmt.Errorf("fig8 unikraft %d keys: %w", keys, err)
		}
		ukClone.Points = append(ukClone.Points, Point{X: x, Y: ms(uc)})
		ukSave.Points = append(ukSave.Points, Point{X: x, Y: ms(us)})
		userOps.Points = append(userOps.Points, Point{X: x, Y: ms(uo)})
	}
	fig.Series = []Series{vmFork, vmSave, ukClone, ukSave, userOps}

	fig.Summary = append(fig.Summary,
		fmt.Sprintf("at %d keys: fork %.2f ms vs clone %.2f ms; save %.1f ms vs %.1f ms",
			keyCounts[len(keyCounts)-1], vmFork.Last().Y, ukClone.Last().Y, vmSave.Last().Y, ukSave.Last().Y),
		fmt.Sprintf("I/O-cloning userspace cost: %.1f ms, constant (paper: amortized at larger updates)", userOps.Last().Y),
		fmt.Sprintf("save-time ratio clone/fork at max keys: %.2f (paper: comparable)", ukSave.Last().Y/vmSave.Last().Y),
	)
	return fig, nil
}

// fig8ValueSize is the mass-insertion value length in bytes.
const fig8ValueSize = 64

// fig8SpawnPages sizes the Redis address space for the key count.
func fig8SpawnPages(keys int) int {
	bytes := keys*(32+fig8ValueSize+32) + (8 << 20) // entries + buckets/slack
	return bytes / 4096
}

// fig8Process measures the second fork and save of Redis running as a
// process inside an Alpine Linux VM, saving to a 9pfs share.
func fig8Process(keys int) (fork, save vclock.Duration, err error) {
	machine := proc.NewMachine(uint64(fig8SpawnPages(keys))*4096*4 + (256 << 20))
	pr, err := machine.Spawn(obs.OpCtx{}, fig8SpawnPages(keys))
	if err != nil {
		return 0, 0, err
	}
	fs := devices.NewHostFS()
	host := apps.NewProcessHost(pr, fs, "/share")
	r, err := apps.NewRedis(host, bucketCount(keys))
	if err != nil {
		return 0, 0, err
	}
	// First save right after initialization: the first fork marks the
	// whole space COW, so the paper reports second-fork values.
	if _, err := r.BGSave(obs.OpCtx{}, "dump0.rdb"); err != nil {
		return 0, 0, err
	}
	if err := r.MassInsert(obs.OpCtx{}, keys, fig8ValueSize); err != nil {
		return 0, 0, err
	}
	res, err := r.BGSave(obs.OpCtx{}, "dump1.rdb")
	if err != nil {
		return 0, 0, err
	}
	return res.ForkTime, res.SerializeTime, nil
}

// fig8Unikraft measures the second clone and save of Redis as a Unikraft
// unikernel with a 9pfs root, network-device cloning skipped.
func fig8Unikraft(keys int) (clone, save, userspace vclock.Duration, err error) {
	memMB := fig8SpawnPages(keys)*4096/(1<<20) + 32
	p := core.NewPlatform(core.Options{
		MemoryBytes:   uint64(memMB*4+512) << 20,
		SkipNameCheck: true,
		Cloned:        cloned.Options{SkipNetworkDevices: true},
	})
	rec, err := p.Boot(toolstack.DomainConfig{
		Name:      "redis",
		MemoryMB:  memMB,
		VCPUs:     1,
		MaxClones: 8,
		NinePFS:   []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}},
	}, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	k, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	host := apps.NewKernelHost(k)
	r, err := apps.NewRedis(host, bucketCount(keys))
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := r.BGSave(obs.Ctx(p.NewMeter()), "dump0.rdb"); err != nil {
		return 0, 0, 0, err
	}
	if err := r.MassInsert(obs.OpCtx{}, keys, fig8ValueSize); err != nil {
		return 0, 0, 0, err
	}
	res, err := r.BGSave(obs.Ctx(p.NewMeter()), "dump1.rdb")
	if err != nil {
		return 0, 0, 0, err
	}
	// Userspace operations of the save's clone: the second stage of the
	// most recent child.
	var uo vclock.Duration
	pd, err := p.HV.Domain(rec.ID)
	if err == nil {
		kids := pd.Children()
		if len(kids) > 0 {
			if d, ok := p.Cloned.SecondStageDuration(kids[len(kids)-1]); ok {
				uo = d
			}
		}
	}
	return res.ForkTime, res.SerializeTime, uo, nil
}

// bucketCount picks a hash size for the key count.
func bucketCount(keys int) int { return min(max(keys/4, 64), 1<<20) }
