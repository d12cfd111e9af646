package bench

import (
	"testing"

	"nephele/internal/core"
	"nephele/internal/fault"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// TestLazyCloneSpeedup gates the headline claim: on the Fig. 4 workload
// at the default figure scale (256 MB guest), a lazy CLONEOP is at least
// 3x faster than an eager one, and stays at least 3x ahead even after
// the child demand-faults a 10% hot set. Virtual time makes both numbers
// exact, so the gate is a hard floor, not a flaky wall-clock ratio.
func TestLazyCloneSpeedup(t *testing.T) {
	fig, err := FigLazy(FigLazyConfig{GuestMB: DefaultFigLazy().GuestMB, HotPercents: []int{10}})
	if err != nil {
		t.Fatal(err)
	}
	eager, ok := fig.SeriesByName("eager CLONEOP")
	if !ok {
		t.Fatal("no eager series")
	}
	lazy, ok := fig.SeriesByName("lazy CLONEOP")
	if !ok {
		t.Fatal("no lazy series")
	}
	ready, ok := fig.SeriesByName("lazy CLONEOP + hot-set demand")
	if !ok {
		t.Fatal("no ready series")
	}
	if s := eager.First().Y / lazy.First().Y; s < 3.0 {
		t.Errorf("lazy CLONEOP speedup %.2fx, want >= 3x (eager %.3f ms, lazy %.3f ms)",
			s, eager.First().Y, lazy.First().Y)
	}
	if s := eager.First().Y / ready.First().Y; s < 3.0 {
		t.Errorf("10%% hot-set ready speedup %.2fx, want >= 3x (eager %.3f ms, ready %.3f ms)",
			s, eager.First().Y, ready.First().Y)
	}
	if ready.First().Y <= lazy.First().Y {
		t.Errorf("ready (%.3f ms) must cost more than the bare CLONEOP (%.3f ms)",
			ready.First().Y, lazy.First().Y)
	}
}

// TestLazyCloneConservation pins the figure-level conservation law: the
// 100% hot-set point equals the eager CLONEOP latency exactly, because a
// fully populated lazy child has charged precisely what its eager sibling
// charged at clone time.
func TestLazyCloneConservation(t *testing.T) {
	fig, err := FigLazy(FigLazyConfig{GuestMB: 16, HotPercents: []int{100}})
	if err != nil {
		t.Fatal(err)
	}
	eager, _ := fig.SeriesByName("eager CLONEOP")
	ready, _ := fig.SeriesByName("lazy CLONEOP + hot-set demand")
	// The per-page demand cost is the stream total split across the
	// deferred pages; rebuilding the sum loses at most the division
	// remainder, under a nanosecond per page.
	if d := eager.First().Y - ready.First().Y; d < -0.001 || d > 0.001 {
		t.Errorf("100%% hot-set ready %.6f ms, want eager %.6f ms (conservation)",
			ready.First().Y, eager.First().Y)
	}
}

// TestGoldenFigLazy pins the figure's virtual-time series. Every quantity
// is derived from meters no asynchronous Xenstore traffic touches (the
// first stage is hypervisor-only and the streamer joins deterministically).
func TestGoldenFigLazy(t *testing.T) {
	fig, err := FigLazy(FigLazyConfig{GuestMB: 16, HotPercents: []int{1, 10, 50, 100}})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "golden-figlazy.txt", fig.String())
}

// TestLazyTraceShape pins the lazy span taxonomy: a traced lazy clone
// records space-clone-lazy in place of space-clone, the joined streamer
// contributes stream-extent spans, and a post-stream figure run has no
// demand-fault spans (the hot-set curve is analytic, not faulted).
func TestLazyTraceShape(t *testing.T) {
	tr := obs.NewTrace()
	if _, err := FigLazy(FigLazyConfig{GuestMB: 8, HotPercents: []int{10}, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byID := make(map[int32]obs.SpanRecord, len(spans))
	count := make(map[string]int)
	for _, s := range spans {
		byID[s.ID] = s
		count[s.Name]++
	}
	if count["space-clone-lazy"] != 1 {
		t.Errorf("space-clone-lazy recorded %d times, want 1", count["space-clone-lazy"])
	}
	if count["space-clone"] != 0 {
		t.Errorf("space-clone recorded %d times in a lazy run, want 0", count["space-clone"])
	}
	if count["stream-extent"] == 0 {
		t.Error("no stream-extent spans: streamer trace not absorbed")
	}
	if count["demand-fault"] != 0 {
		t.Errorf("demand-fault recorded %d times in a no-fault run, want 0", count["demand-fault"])
	}
	for _, s := range spans {
		if s.Name == "space-clone-lazy" {
			if p := byID[s.Parent].Name; p != "clone-child" {
				t.Errorf("space-clone-lazy nested under %q, want clone-child", p)
			}
		}
	}
}

// TestLazyDemandFaultSpan covers the taxonomy's third member: when the
// streamer is dead (killed here by a fatal stream-extent injection before
// it adopts anything), a hot-set access materializes its page through the
// demand path and records a demand-fault span.
func TestLazyDemandFaultSpan(t *testing.T) {
	p := core.NewPlatform(core.Options{SkipNameCheck: true})
	reg := fault.NewRegistry()
	p.SetFaults(reg)
	reg.Inject(fault.PointMemStreamExtent, fault.FailAlways(), fault.Fatal)

	cfg := miniOSUDP("lazy-parent")
	cfg.MemoryMB = 8
	cfg.MaxClones = 4
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil); err != nil {
		t.Fatal(err)
	}
	results, err := p.CloneOp(obs.OpCtx{},
		core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1, Mode: mem.CloneLazy})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	d, err := p.HV.Domain(res.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	sp := d.Space()

	tr := obs.NewTrace()
	ctx := obs.Ctx(vclock.NewMeter(p.Costs)).WithTrace(tr)
	buf := make([]byte, 8)
	pages := 8 << 20 / mem.PageSize
	for pfn := 0; pfn < pages && sp.StreamStats().DemandPages == 0; pfn++ {
		if err := sp.ReadOp(ctx, mem.PFN(pfn), 0, buf); err != nil {
			t.Fatalf("read pfn %d: %v", pfn, err)
		}
	}
	if sp.StreamStats().DemandPages == 0 {
		t.Fatal("no page took the demand path")
	}
	found := 0
	for _, s := range tr.Spans() {
		if s.Name == "demand-fault" {
			found++
		}
	}
	if found == 0 {
		t.Error("demand materialization recorded no demand-fault span")
	}
	werr := p.WaitStreamed(obs.Ctx(vclock.NewMeter(p.Costs)), res.Children[0])
	if !fault.IsFault(werr) {
		t.Fatalf("WaitStreamed = %v, want the injected stream-extent fault", werr)
	}
}
