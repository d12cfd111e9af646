package bench

import (
	"fmt"

	"nephele/internal/cloned"
	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/obs"
	"nephele/internal/proc"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// fig6 regenerates Figure 6 (§6.2): first and second fork/clone duration
// versus the resident memory size, for a Linux process and a Unikraft VM,
// plus the constant Dom0 userspace-operations line. The application
// allocates a resident chunk and then serves fork/clone requests; for the
// cloning numbers the I/O devices are skipped and only the mandatory
// second-stage operations run, exactly like the paper. The paper averages
// 10 repetitions per point; the simulated platform is deterministic, so
// one is exact.
func fig6(quick bool, _ *obs.Trace) (*Figure, error) {
	sizesMB := []int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	if quick {
		sizesMB = []int{1, 4, 16, 64, 256, 1024}
	}
	fig := &Figure{
		ID:     "fig6",
		Title:  "Fork and cloning duration depending on used memory size",
		XLabel: "memory allocation size (MB)",
		YLabel: "milliseconds",
	}
	names := []string{"process 1st fork", "process 2nd fork", "Unikraft 1st clone", "Unikraft 2nd clone", "userspace operations"}
	fig.Series = make([]Series, len(names))
	for i, name := range names {
		fig.Series[i].Name = name
	}
	for _, sizeMB := range sizesMB {
		f1, f2, err := fig6Process(sizeMB)
		if err != nil {
			return nil, fmt.Errorf("fig6 process %dMB: %w", sizeMB, err)
		}
		c1, c2, us, err := fig6Unikraft(sizeMB)
		if err != nil {
			return nil, fmt.Errorf("fig6 unikraft %dMB: %w", sizeMB, err)
		}
		for i, d := range []vclock.Duration{f1, f2, c1, c2, us} {
			fig.Series[i].Points = append(fig.Series[i].Points, Point{X: float64(sizeMB), Y: ms(d)})
		}
	}

	pf2, uc2 := fig.Series[1], fig.Series[3]
	firstGap := (uc2.First().Y - pf2.First().Y) / pf2.First().Y * 100
	lastGap := (uc2.Last().Y - pf2.Last().Y) / pf2.Last().Y * 100
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("2nd fork at %gMB: %.2f ms; 2nd clone: %.2f ms (paper: 0.07 vs 4.1)",
			pf2.First().X, pf2.First().Y, uc2.First().Y),
		fmt.Sprintf("2nd fork at %gMB: %.1f ms; 2nd clone: %.1f ms (paper: 65.2 vs 79.2)",
			pf2.Last().X, pf2.Last().Y, uc2.Last().Y),
		fmt.Sprintf("fork-vs-clone gap: %.0f%% at small sizes -> %.0f%% at %gMB (paper: 5757%% -> 21%%)",
			firstGap, lastGap, uc2.Last().X),
		fmt.Sprintf("userspace operations: %.1f ms, constant across sizes (paper: 3 ms first / 1.9 ms later)",
			fig.Series[4].Last().Y),
	)
	return fig, nil
}

// fig6Process measures the first and second fork of a Linux process
// holding sizeMB resident.
func fig6Process(sizeMB int) (first, second vclock.Duration, err error) {
	machine := proc.NewMachine(uint64(sizeMB+64) << 20)
	p, err := machine.Spawn(obs.OpCtx{}, sizeMB*256)
	if err != nil {
		return 0, 0, err
	}
	m1 := vclock.NewMeter(nil)
	c1, err := p.Fork(obs.Ctx(m1))
	if err != nil {
		return 0, 0, err
	}
	m2 := vclock.NewMeter(nil)
	c2, err := p.Fork(obs.Ctx(m2))
	if err != nil {
		return 0, 0, err
	}
	c1.Exit()
	c2.Exit()
	return m1.Elapsed(), m2.Elapsed(), nil
}

// fig6Unikraft measures the first and second clone of a Unikraft VM
// holding sizeMB (subject to Xen's 4 MB domain minimum), with device
// cloning skipped (only the mandatory second-stage operations), plus the
// Dom0 userspace-operation time of the second clone.
func fig6Unikraft(sizeMB int) (first, second, userspace vclock.Duration, err error) {
	p := core.NewPlatform(core.Options{
		// Three clones' worth of the largest size.
		MemoryBytes:   uint64(3*sizeMB+512) << 20,
		SkipNameCheck: true,
		Cloned:        cloned.Options{SkipDevices: true},
	})
	rec, err := p.Boot(toolstack.DomainConfig{
		Name:      "alloc-server",
		MemoryMB:  sizeMB,
		VCPUs:     1,
		MaxClones: 4,
	}, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	k, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	// The tinyalloc-backed app allocates its resident chunk; the pages
	// were populated at domain creation, mirroring a resident mmap.
	if _, err := k.Alloc(sizeMB << 19); err != nil { // half the space: metadata fits
		return 0, 0, 0, err
	}

	m1 := p.NewMeter()
	if _, err := k.Fork(obs.Ctx(m1), 1, nil); err != nil {
		return 0, 0, 0, err
	}
	m2 := p.NewMeter()
	res2, err := k.Fork(obs.Ctx(m2), 1, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	return m1.Elapsed(), m2.Elapsed(), res2.Clone.SecondStage, nil
}
