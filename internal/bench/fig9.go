package bench

import (
	"fmt"
	"time"

	"nephele/internal/fuzz"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// fig9Window is the sampling window of the executions/second series.
const fig9Window = 10 * vclock.Duration(time.Second)

// fig9Series names one run configuration.
type fig9Series struct {
	name    string
	mode    fuzz.Mode
	getppid bool
}

// fig9 regenerates Figure 9 (§7.2): fuzzing throughput over time for
// Unikraft with and without cloning (plus their getppid baselines), the
// native Linux process under AFL, and the Linux kernel module under
// KFX+AFL, each a seed-1 campaign of the paper's 300 s of virtual time.
func fig9(quick bool, _ *obs.Trace) (*Figure, error) {
	duration := 300 * vclock.Duration(time.Second)
	if quick {
		duration = 60 * vclock.Duration(time.Second)
	}
	fig := &Figure{
		ID:     "fig9",
		Title:  "Fuzzing throughput",
		XLabel: "time elapsed (s)",
		YLabel: "throughput (executions/s)",
	}
	runs := []fig9Series{
		{"Unikraft baseline (KFX+AFL)", fuzz.ModeUnikraftBoot, true},
		{"Unikraft (KFX+AFL)", fuzz.ModeUnikraftBoot, false},
		{"Unikraft+cloning baseline (KFX+AFL)", fuzz.ModeUnikraftClone, true},
		{"Unikraft+cloning (KFX+AFL)", fuzz.ModeUnikraftClone, false},
		{"Linux process baseline (AFL)", fuzz.ModeLinuxProcess, true},
		{"Linux process (AFL)", fuzz.ModeLinuxProcess, false},
		{"Linux kernel module baseline (KFX+AFL)", fuzz.ModeLinuxKernelModule, true},
	}
	avg := map[string]float64{}
	var stats = map[string]fuzz.Stats{}
	for _, run := range runs {
		s, err := fuzz.NewSession(fuzz.Config{Mode: run.mode, GetppidOnly: run.getppid, Seed: 1})
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", run.name, err)
		}
		series, rate, err := fig9Run(s, duration)
		s.Close()
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", run.name, err)
		}
		series.Name = run.name
		fig.Series = append(fig.Series, series)
		avg[run.name] = rate
		stats[run.name] = s.Stats()
	}

	clone := avg["Unikraft+cloning (KFX+AFL)"]
	noClone := avg["Unikraft (KFX+AFL)"]
	linux := avg["Linux process (AFL)"]
	module := avg["Linux kernel module baseline (KFX+AFL)"]
	cs := stats["Unikraft+cloning (KFX+AFL)"]
	ms9 := stats["Linux kernel module baseline (KFX+AFL)"]
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("Unikraft without cloning: %.1f exec/s (paper: ~2)", noClone),
		fmt.Sprintf("Unikraft with cloning: %.0f exec/s (paper: ~470)", clone),
		fmt.Sprintf("Linux process: %.0f exec/s (paper: ~590); cloning within %.1f%% (paper: 18.6%% lower)",
			linux, (linux-clone)/linux*100),
		fmt.Sprintf("Linux kernel module: %.0f exec/s, %.1f%% below cloning (paper: 320, 31.9%% lower)",
			module, (clone-module)/clone*100),
		fmt.Sprintf("dirty pages per iteration: Unikraft %.1f vs Linux module %.1f (paper: ~3 vs ~8)",
			cs.AvgDirtyPages, ms9.AvgDirtyPages),
		fmt.Sprintf("memory reset: Unikraft %v vs Linux module %v (paper: ~125 µs vs ~250 µs)",
			cs.AvgResetTime, ms9.AvgResetTime),
	)
	return fig, nil
}

// fig9Run drives one session for duration of virtual time, sampling
// executions/second every fig9Window.
func fig9Run(s *fuzz.Session, duration vclock.Duration) (Series, float64, error) {
	var series Series
	meter := vclock.NewMeter(nil)
	var iters, windowIters int
	windowEnd := fig9Window
	for meter.Elapsed() < duration {
		if _, err := s.Iterate(meter); err != nil {
			return series, 0, err
		}
		iters++
		windowIters++
		for meter.Elapsed() >= windowEnd {
			series.Points = append(series.Points, Point{
				X: windowEnd.Seconds(),
				Y: float64(windowIters) / fig9Window.Seconds(),
			})
			windowIters = 0
			windowEnd += fig9Window
		}
	}
	return series, float64(iters) / meter.Elapsed().Seconds(), nil
}
