package bench

import (
	"fmt"

	"nephele/internal/apps"
	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// fig7 regenerates Figure 7 (§7.1): NGINX HTTP request throughput for
// workers running as Linux processes (socket sharding) versus Unikraft
// clones (bond-aggregated identical interfaces), 1 to 4 workers (the
// paper's machine has 4 cores) under wrk's 400 open connections per
// worker. For the clone deployment the workers are real forked guests: a
// parent NGINX unikernel forks (workers-1) clones, and the run only
// proceeds if the platform reports them ready.
func fig7(quick bool, _ *obs.Trace) (*Figure, error) {
	const maxWorkers, connsPerWorker = 4, 400
	// The paper repeats the 5 s wrk session 30 times.
	reps, requests := 30, 60000
	if quick {
		reps, requests = 5, 20000
	}
	fig := &Figure{
		ID:     "fig7",
		Title:  "NGINX HTTP requests throughput",
		XLabel: "# workers",
		YLabel: "requests/sec",
	}
	costs := vclock.DefaultCosts()
	var proc, procMin, procMax, clone, cloneMin, cloneMax Series
	proc.Name, clone.Name = "nginx processes", "nginx clones"
	procMin.Name, procMax.Name = "nginx processes (min)", "nginx processes (max)"
	cloneMin.Name, cloneMax.Name = "nginx clones (min)", "nginx clones (max)"

	for workers := 1; workers <= maxWorkers; workers++ {
		// Deploy the clone workers for real: parent + (workers-1)
		// forks on a platform with a bond.
		if err := deployCloneWorkers(workers); err != nil {
			return nil, fmt.Errorf("fig7 deploy %d clones: %w", workers, err)
		}
		var procRates, cloneRates []float64
		for rep := 0; rep < reps; rep++ {
			np := apps.NewNginx(apps.DeployProcesses, workers, costs)
			np.SetJitterSeed(uint32(rep))
			pres, err := np.Run(requests, connsPerWorker*workers)
			if err != nil {
				return nil, err
			}
			procRates = append(procRates, pres.Throughput)

			nc := apps.NewNginx(apps.DeployClones, workers, costs)
			nc.SetJitterSeed(uint32(rep))
			cres, err := nc.Run(requests, connsPerWorker*workers)
			if err != nil {
				return nil, err
			}
			cloneRates = append(cloneRates, cres.Throughput)
		}
		x := float64(workers)
		pm, pmin, pmax := meanMinMax(procRates)
		cm, cmin, cmax := meanMinMax(cloneRates)
		proc.Points = append(proc.Points, Point{X: x, Y: pm})
		procMin.Points = append(procMin.Points, Point{X: x, Y: pmin})
		procMax.Points = append(procMax.Points, Point{X: x, Y: pmax})
		clone.Points = append(clone.Points, Point{X: x, Y: cm})
		cloneMin.Points = append(cloneMin.Points, Point{X: x, Y: cmin})
		cloneMax.Points = append(cloneMax.Points, Point{X: x, Y: cmax})
	}
	fig.Series = []Series{proc, procMin, procMax, clone, cloneMin, cloneMax}

	scale := clone.Last().Y / clone.First().Y
	procSpread := (procMax.Last().Y - procMin.Last().Y) / proc.Last().Y
	cloneSpread := (cloneMax.Last().Y - cloneMin.Last().Y) / clone.Last().Y
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("clones scale %.2fx from 1 to %d workers (paper: linear growth)", scale, maxWorkers),
		fmt.Sprintf("clones vs processes at %d workers: %.0f vs %.0f req/s (paper: clones higher)",
			maxWorkers, clone.Last().Y, proc.Last().Y),
		fmt.Sprintf("throughput spread: processes %.1f%%, clones %.1f%% (paper: clones less variable)",
			procSpread*100, cloneSpread*100),
	)
	return fig, nil
}

// deployCloneWorkers boots an NGINX parent and forks workers-1 clones,
// verifying the bond aggregates all worker vifs.
func deployCloneWorkers(workers int) error {
	p := core.NewPlatform(core.Options{
		MemoryBytes:   1 << 30,
		SkipNameCheck: true,
	})
	rec, err := p.Boot(miniOSUDP("nginx-parent"), nil)
	if err != nil {
		return err
	}
	k, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		return err
	}
	if workers > 1 {
		if _, err := k.Fork(obs.OpCtx{}, workers-1, nil); err != nil {
			return err
		}
	}
	if got := p.Bond.Slaves(); got != workers {
		return fmt.Errorf("bond has %d slaves, want %d", got, workers)
	}
	return nil
}
