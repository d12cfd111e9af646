package bench

import (
	"fmt"
	"time"

	"nephele/internal/core"
	"nephele/internal/faas"
	"nephele/internal/guest"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// faasUnikernelRuntime builds the unikernel backend over a REAL platform:
// a warm Python-function parent is booted once, and every scale-up forks
// it through the full two-stage clone path, so the readiness latencies of
// Fig. 10/11 come from the measured clone times.
func faasUnikernelRuntime() (*faas.UnikernelRuntime, error) {
	p := core.NewPlatform(core.Options{
		MemoryBytes:   2 << 30,
		SkipNameCheck: true,
	})
	// The Python runtime is shared between all instances via the 9pfs
	// root filesystem (KubeKraft packaging).
	p.HostFS.WriteFile("export/python/handler.py", []byte("def handle(req):\n    return 'Hello World'\n"))
	cfg := miniOSUDP("faas-fn")
	cfg.MemoryMB = 16
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		return nil, err
	}
	k, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		return nil, err
	}
	return faas.NewUnikernelRuntime(func() (vclock.Duration, error) {
		res, err := k.Fork(obs.OpCtx{}, 1, nil)
		if err != nil {
			return 0, err
		}
		return res.Clone.Total, nil
	}), nil
}

// runFaaS executes one gateway session per runtime over duration of
// virtual time, sampled every second, under an offered load that starts at
// baseRPS and steps up by stepRPS every 30 s, and returns both reports.
// The shared services hold a fixed 21 MB.
func runFaaS(duration vclock.Duration, baseRPS, stepRPS float64) (cont, uni *faas.RunReport, err error) {
	const servicesMem = 21 << 20
	tick := vclock.Duration(time.Second)
	load := faas.StepLoad(baseRPS, stepRPS, 30*tick)

	cg := faas.NewGateway(faas.NewContainerRuntime(nil), servicesMem)
	cont, err = cg.Run(duration, tick, load)
	if err != nil {
		return nil, nil, fmt.Errorf("faas containers: %w", err)
	}
	rt, err := faasUnikernelRuntime()
	if err != nil {
		return nil, nil, err
	}
	ug := faas.NewGateway(rt, servicesMem)
	uni, err = ug.Run(duration, tick, load)
	if err != nil {
		return nil, nil, fmt.Errorf("faas unikernels: %w", err)
	}
	return cont, uni, nil
}

// fig10 regenerates Figure 10 (§7.3): memory consumption of OpenFaaS with
// containers versus unikernels over the paper's ~220 s window, with
// instance-readiness markers. The load ramp triggers the 10-RPS
// autoscaler; the figure has one scale.
func fig10(bool, *obs.Trace) (*Figure, error) {
	cont, uni, err := runFaaS(220*vclock.Duration(time.Second), 15, 15)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig10",
		Title:  "Memory consumption in OpenFaaS: containers vs. unikernels",
		XLabel: "seconds",
		YLabel: "memory (MB)",
	}
	toSeries := func(name string, rep *faas.RunReport) Series {
		var s Series
		s.Name = name
		for _, smp := range rep.Samples {
			s.Points = append(s.Points, Point{X: smp.T.Seconds(), Y: float64(smp.MemBytes) / (1 << 20)})
		}
		return s
	}
	fig.Series = []Series{toSeries("containers", cont), toSeries("unikernels", uni)}
	// Readiness markers (the dashed vertical lines of the figure).
	var contReady, uniReady Series
	contReady.Name = "containers ready at"
	uniReady.Name = "unikernels ready at"
	for i, t := range cont.ReadyTimes {
		contReady.Points = append(contReady.Points, Point{X: float64(i + 1), Y: t.Seconds()})
	}
	for i, t := range uni.ReadyTimes {
		uniReady.Points = append(uniReady.Points, Point{X: float64(i + 1), Y: t.Seconds()})
	}
	fig.Series = append(fig.Series, contReady, uniReady)

	firstCont := fig.Series[0].First().Y
	firstUni := fig.Series[1].First().Y
	lastCont := fig.Series[0].Last().Y
	lastUni := fig.Series[1].Last().Y
	contN := float64(len(cont.ReadyTimes))
	uniN := float64(len(uni.ReadyTimes))
	contPer := (lastCont - firstCont) / max(contN-1, 1)
	uniPer := (lastUni - firstUni) / max(uniN-1, 1)
	lead := 0.0
	for i := 1; i < len(cont.ReadyTimes) && i < len(uni.ReadyTimes); i++ {
		lead += (cont.ReadyTimes[i] - uni.ReadyTimes[i]).Seconds()
	}
	if n := min(len(cont.ReadyTimes), len(uni.ReadyTimes)) - 1; n > 0 {
		lead /= float64(n)
	}
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("first instance: %.0f MB unikernel vs %.0f MB container (paper: 85 vs 90)", firstUni, firstCont),
		fmt.Sprintf("per additional instance: %.0f MB unikernel vs %.0f MB container (paper: 35 vs 220)", uniPer, contPer),
		fmt.Sprintf("unikernel instances ready %.1f s sooner on average (paper: ~5 s, dominated by orchestration)", lead),
	)
	return fig, nil
}

// fig11 regenerates Figure 11 (§7.3): served throughput versus time at
// increasing demand over the paper's ~150 s window, with the times each
// new instance becomes ready. It ramps harder than Fig. 10: the native
// stack's 600 req/s per container vs lwip's 300 req/s per unikernel. The
// figure has one scale.
func fig11(bool, *obs.Trace) (*Figure, error) {
	cont, uni, err := runFaaS(150*vclock.Duration(time.Second), 200, 300)
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "fig11",
		Title:  "Reaction of containers vs. unikernels in OpenFaaS at increasing demand",
		XLabel: "seconds",
		YLabel: "throughput (reqs/sec)",
	}
	toSeries := func(name string, rep *faas.RunReport) Series {
		var s Series
		s.Name = name
		for _, smp := range rep.Samples {
			s.Points = append(s.Points, Point{X: smp.T.Seconds(), Y: smp.ServedRPS})
		}
		return s
	}
	fig.Series = []Series{toSeries("containers", cont), toSeries("unikernels", uni)}

	readyList := func(rep *faas.RunReport, n int) string {
		out := ""
		for i, t := range rep.ReadyTimes {
			if i >= n {
				break
			}
			if i > 0 {
				out += ", "
			}
			out += fmt.Sprintf("%.0fs", t.Seconds())
		}
		return out
	}
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("container instances ready at: %s (paper: 33, 42, 56 s)", readyList(cont, 4)),
		fmt.Sprintf("unikernel instances ready at: %s (paper: 3, 14, 25 s)", readyList(uni, 4)),
		fmt.Sprintf("served/offered: containers %.0f%%, unikernels %.0f%% (paper: clones track load closely)",
			cont.ServedReqs/cont.TotalReqs*100, uni.ServedReqs/uni.TotalReqs*100),
	)
	return fig, nil
}
