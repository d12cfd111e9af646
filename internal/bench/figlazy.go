package bench

import (
	"fmt"

	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// figLazyClone boots one Fig. 4-shape parent of mb megabytes, clones it
// once in the requested mode and reports the CLONEOP (first stage)
// latency. For a lazy clone it then drains the child (WaitStreamed),
// returning the deferred page count and the total virtual time the drain
// charged — the work a hot-set access pays per page on the demand path.
func figLazyClone(mb int, mode mem.CloneMode, tr *obs.Trace) (first, stream vclock.Duration, deferred, pages int, err error) {
	p := core.NewPlatform(core.Options{SkipNameCheck: true})
	if tr != nil {
		p.Observe(tr)
	}
	cfg := miniOSUDP("lazy-parent")
	cfg.MemoryMB = mb
	cfg.MaxClones = 4
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("figlazy boot: %w", err)
	}
	if _, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil); err != nil {
		return 0, 0, 0, 0, err
	}
	results, err := p.CloneOp(obs.OpCtx{},
		core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1, Mode: mode})
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("figlazy clone: %w", err)
	}
	res := results[0]
	first = res.Stats.FirstStage
	deferred = res.Stats.Memory.Deferred
	pages = mb << 20 / mem.PageSize
	if mode == mem.CloneLazy {
		wm := vclock.NewMeter(p.Costs)
		wctx := obs.Ctx(wm)
		if tr != nil {
			wctx = wctx.WithTrace(tr)
		}
		if err := p.WaitStreamed(wctx, res.Children[0]); err != nil {
			return 0, 0, 0, 0, fmt.Errorf("figlazy stream: %w", err)
		}
		stream = wm.Elapsed()
	}
	return first, stream, deferred, pages, nil
}

// figLazy regenerates the lazy-clone figure (`nephele-bench -fig lazy`):
// CLONEOP latency for an eager and a lazy clone of the Fig. 4 guest shape
// scaled up in memory, plus the lazy child's time-to-ready across hot-set
// sizes (CLONEOP + demand-faulting that fraction of guest pages). Per-page
// demand cost equals the drain's total divided by the deferred page
// count — demand faults and the drain charge the identical adoption
// work, so the curve is exact, and at a 100% hot set it meets the eager
// line: lazy CLONEOP + full population is virtually indistinguishable
// from an eager CLONEOP (the conservation law the differential harness in
// internal/mem/lazytest proves seed by seed). tr, when non-nil, records
// the lazy clone's span taxonomy (space-clone-lazy, stream-extent).
func figLazy(quick bool, tr *obs.Trace) (*Figure, error) {
	// At 256 MB the per-page stamping volume that lazy mode defers
	// dominates the CLONEOP hypercall's fixed ~1.7 ms (domain creation,
	// rings, metadata copies) by enough that both the bare CLONEOP and the
	// 10% hot-set ready time clear the 3x gate.
	guestMB, hotPercents := 256, []int{1, 5, 10, 25, 50, 100}
	if quick {
		guestMB, hotPercents = 16, []int{1, 10, 100}
	}
	eagerFirst, _, _, pages, err := figLazyClone(guestMB, mem.CloneEager, nil)
	if err != nil {
		return nil, err
	}
	lazyFirst, stream, deferred, _, err := figLazyClone(guestMB, mem.CloneLazy, tr)
	if err != nil {
		return nil, err
	}
	if deferred == 0 {
		return nil, fmt.Errorf("figlazy: lazy clone of a %d MB guest deferred no pages", guestMB)
	}

	fig := &Figure{
		ID:     "figlazy",
		Title:  fmt.Sprintf("Lazy clone: CLONEOP latency and time-to-ready, %d MB guest", guestMB),
		XLabel: "hot-set size (% of guest pages)",
		YLabel: "milliseconds",
	}
	demandFor := func(pct int) vclock.Duration {
		hot := min(max(pages*pct/100, 1), deferred)
		return vclock.Duration(int64(stream) * int64(hot) / int64(deferred))
	}
	var eager, lazy, ready Series
	eager.Name = "eager CLONEOP"
	lazy.Name = "lazy CLONEOP"
	ready.Name = "lazy CLONEOP + hot-set demand"
	for _, pct := range hotPercents {
		x := float64(pct)
		eager.Points = append(eager.Points, Point{X: x, Y: ms(eagerFirst)})
		lazy.Points = append(lazy.Points, Point{X: x, Y: ms(lazyFirst)})
		ready.Points = append(ready.Points, Point{X: x, Y: ms(lazyFirst + demandFor(pct))})
	}
	fig.Series = []Series{eager, lazy, ready}

	ready10 := lazyFirst + demandFor(10)
	fig.Summary = append(fig.Summary,
		fmt.Sprintf("CLONEOP latency: eager %.3f ms vs lazy %.3f ms (%.1fx)",
			ms(eagerFirst), ms(lazyFirst), float64(eagerFirst)/float64(lazyFirst)),
		fmt.Sprintf("ready at 10%% hot set: eager %.3f ms vs lazy %.3f ms (%.1fx)",
			ms(eagerFirst), ms(ready10), float64(eagerFirst)/float64(ready10)),
		fmt.Sprintf("deferred %d of %d pages; background stream %.3f ms total (%.0f ns/page)",
			deferred, pages, ms(stream), float64(stream)/float64(deferred)),
		fmt.Sprintf("conservation: lazy %.3f ms + stream %.3f ms = %.3f ms vs eager %.3f ms",
			ms(lazyFirst), ms(stream), ms(lazyFirst+stream), ms(eagerFirst)),
	)
	return fig, nil
}
