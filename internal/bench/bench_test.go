package bench

import (
	"strings"
	"testing"
)

// The shape tests read the same quick figures the golden files pin
// (quickFigure); paper scale is `nephele-bench -fig all`.

// yAt returns the series' y value at x, failing the test when no point
// sits there, so an assertion keeps its meaning at any sweep.
func yAt(t *testing.T, s Series, x float64) float64 {
	t.Helper()
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("series %q has no point at x=%g", s.Name, x)
	return 0
}

func TestFig4ShapesAndCalibration(t *testing.T) {
	fig := quickFigure(t, "4")
	boot, _ := fig.SeriesByName("boot")
	restore, _ := fig.SeriesByName("restore")
	deep, _ := fig.SeriesByName("clone + XS deep copy")
	clone, _ := fig.SeriesByName("clone")
	if len(boot.Points) == 0 || len(clone.Points) == 0 {
		t.Fatal("missing series")
	}
	// Calibration bands around the paper's intercepts.
	if y := boot.First().Y; y < 120 || y > 220 {
		t.Fatalf("boot intercept = %.0f ms, want ~160", y)
	}
	if y := restore.First().Y; y < 140 || y > 250 {
		t.Fatalf("restore intercept = %.0f ms, want ~180", y)
	}
	if y := clone.First().Y; y < 12 || y > 40 {
		t.Fatalf("clone intercept = %.0f ms, want ~20-30", y)
	}
	// Orderings: restore > boot > deep > clone at every sampled x.
	for i := range clone.Points {
		if !(restore.Points[i].Y > boot.Points[i].Y &&
			boot.Points[i].Y > deep.Points[i].Y &&
			deep.Points[i].Y > clone.Points[i].Y) {
			t.Fatalf("ordering violated at sample %d: restore=%.1f boot=%.1f deep=%.1f clone=%.1f",
				i, restore.Points[i].Y, boot.Points[i].Y, deep.Points[i].Y, clone.Points[i].Y)
		}
	}
	// Boot grows with instances; the headline speedup is substantial.
	if boot.Last().Y <= boot.First().Y {
		t.Fatal("boot latency did not grow with instances")
	}
	if speedup := boot.First().Y / clone.First().Y; speedup < 4 {
		t.Fatalf("clone speedup = %.1fx, want >> 1 (paper ~8x)", speedup)
	}
	if fig.String() == "" || len(fig.Summary) == 0 {
		t.Fatal("empty rendering")
	}
}

func TestFig5DensityShape(t *testing.T) {
	// The quick machine is smaller than the paper's; the density ratio is
	// scale-free.
	fig := quickFigure(t, "5")
	bootHyp, _ := fig.SeriesByName("Booting Hyp free")
	cloneHyp, _ := fig.SeriesByName("Cloning Hyp free")
	if bootHyp.Last().Y >= bootHyp.First().Y {
		t.Fatal("boot free memory did not decrease")
	}
	if cloneHyp.Last().Y >= cloneHyp.First().Y {
		t.Fatal("clone free memory did not decrease")
	}
	// Density: the clone curve reaches far more instances.
	if cloneHyp.Last().X < 2.5*bootHyp.Last().X {
		t.Fatalf("density ratio = %.1f, want ~3x (boot %d vs clone %d instances)",
			cloneHyp.Last().X/bootHyp.Last().X, int(bootHyp.Last().X), int(cloneHyp.Last().X))
	}
}

func TestFig6GapShrinks(t *testing.T) {
	fig := quickFigure(t, "6")
	fork2, _ := fig.SeriesByName("process 2nd fork")
	clone2, _ := fig.SeriesByName("Unikraft 2nd clone")
	fork1, _ := fig.SeriesByName("process 1st fork")
	clone1, _ := fig.SeriesByName("Unikraft 1st clone")
	user, _ := fig.SeriesByName("userspace operations")

	// First > second on both substrates, everywhere.
	for i := range fork2.Points {
		if fork1.Points[i].Y <= fork2.Points[i].Y {
			t.Fatalf("first fork not above second at %gMB", fork1.Points[i].X)
		}
		if clone1.Points[i].Y <= clone2.Points[i].Y {
			t.Fatalf("first clone not above second at %gMB", clone1.Points[i].X)
		}
	}
	// The relative gap between 2nd clone and 2nd fork shrinks with size.
	gapAt := func(i int) float64 {
		return (clone2.Points[i].Y - fork2.Points[i].Y) / fork2.Points[i].Y
	}
	if !(gapAt(0) > gapAt(len(fork2.Points)-1)) {
		t.Fatalf("gap did not shrink: %.1f -> %.1f", gapAt(0), gapAt(len(fork2.Points)-1))
	}
	// Userspace operations are constant across sizes.
	if user.First().Y != user.Last().Y {
		t.Fatalf("userspace ops vary: %.2f vs %.2f", user.First().Y, user.Last().Y)
	}
	// Clone duration is flat below Xen's 4 MB minimum (the 1 MB point
	// equals the 4 MB cost — both run a 4 MB domain) and grows past it.
	if yAt(t, clone2, 1) != yAt(t, clone2, 4) {
		t.Fatalf("clone duration not flat below the 4 MB minimum: %.3f vs %.3f ms",
			yAt(t, clone2, 1), yAt(t, clone2, 4))
	}
	if yAt(t, clone2, 16) <= yAt(t, clone2, 4) {
		t.Fatal("clone duration did not grow past the 4 MB minimum")
	}
}

func TestFig7LinearScaling(t *testing.T) {
	fig := quickFigure(t, "7")
	proc, _ := fig.SeriesByName("nginx processes")
	clone, _ := fig.SeriesByName("nginx clones")
	for i := 0; i < len(clone.Points); i++ {
		if clone.Points[i].Y <= proc.Points[i].Y {
			t.Fatalf("clones not above processes at %d workers", i+1)
		}
		if i > 0 && clone.Points[i].Y <= clone.Points[i-1].Y {
			t.Fatalf("clone throughput not growing at %d workers", i+1)
		}
	}
	ratio := clone.Last().Y / clone.First().Y
	if ratio < 3.2 || ratio > 4.5 {
		t.Fatalf("4-worker scaling = %.2fx, want ~4x", ratio)
	}
}

func TestFig8SaveDominatesAtScale(t *testing.T) {
	fig := quickFigure(t, "8")
	vmSave, _ := fig.SeriesByName("VM process save")
	ukSave, _ := fig.SeriesByName("Unikraft save")
	ukClone, _ := fig.SeriesByName("Unikraft clone")
	vmFork, _ := fig.SeriesByName("VM process fork")
	user, _ := fig.SeriesByName("userspace operations")

	// Save times grow with keys and converge between substrates.
	if vmSave.Last().Y <= vmSave.First().Y {
		t.Fatal("process save time did not grow")
	}
	relGap := (ukSave.Last().Y - vmSave.Last().Y) / vmSave.Last().Y
	if relGap < 0 {
		relGap = -relGap
	}
	if relGap > 0.2 {
		t.Fatalf("save times diverge at scale: %.1f vs %.1f ms", ukSave.Last().Y, vmSave.Last().Y)
	}
	// Clone includes the constant I/O-cloning cost: above fork at all
	// sizes, by roughly the userspace-operation cost.
	for i := range ukClone.Points {
		if ukClone.Points[i].Y <= vmFork.Points[i].Y {
			t.Fatalf("clone not above fork at point %d", i)
		}
	}
	if user.First().Y <= 0 {
		t.Fatal("userspace operations not recorded")
	}
}

func TestFig9ThroughputOrdering(t *testing.T) {
	fig := quickFigure(t, "9")
	get := func(name string) float64 {
		s, ok := fig.SeriesByName(name)
		if !ok || len(s.Points) == 0 {
			t.Fatalf("missing series %q", name)
		}
		mean, _, _ := meanMinMax(seriesYs(s))
		return mean
	}
	linux := get("Linux process (AFL)")
	clone := get("Unikraft+cloning (KFX+AFL)")
	module := get("Linux kernel module baseline (KFX+AFL)")
	noClone := get("Unikraft (KFX+AFL)")
	if !(linux > clone && clone > module && module > noClone) {
		t.Fatalf("ordering wrong: linux=%.0f clone=%.0f module=%.0f none=%.1f",
			linux, clone, module, noClone)
	}
	if noClone > 10 {
		t.Fatalf("no-clone rate = %.1f exec/s, want ~2", noClone)
	}
	if clone < 300 || clone > 700 {
		t.Fatalf("clone rate = %.0f, want ~470", clone)
	}
}

func seriesYs(s Series) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.Y
	}
	return out
}

func TestFig10MemoryShapes(t *testing.T) {
	fig := quickFigure(t, "10")
	cont, _ := fig.SeriesByName("containers")
	uni, _ := fig.SeriesByName("unikernels")
	if cont.First().Y < 80 || cont.First().Y > 100 {
		t.Fatalf("first container memory = %.0f MB, want ~90", cont.First().Y)
	}
	if uni.First().Y < 75 || uni.First().Y > 95 {
		t.Fatalf("first unikernel memory = %.0f MB, want ~85", uni.First().Y)
	}
	if uni.Last().Y >= cont.Last().Y {
		t.Fatal("unikernels did not save memory over containers")
	}
}

func TestFig11ReactionShapes(t *testing.T) {
	fig := quickFigure(t, "11")
	var contReady, uniReady string
	for _, s := range fig.Summary {
		if strings.HasPrefix(s, "container instances ready") {
			contReady = s
		}
		if strings.HasPrefix(s, "unikernel instances ready") {
			uniReady = s
		}
	}
	if contReady == "" || uniReady == "" {
		t.Fatal("readiness summaries missing")
	}
	cont, _ := fig.SeriesByName("containers")
	uni, _ := fig.SeriesByName("unikernels")
	// Early in the run the unikernels serve at least as much as the
	// containers (faster readiness), despite lower per-instance rate.
	if len(uni.Points) < 10 || len(cont.Points) < 10 {
		t.Fatal("timeline too short")
	}
	uniEarly, _, _ := meanMinMax(seriesYs(Series{Points: uni.Points[:10]}))
	contEarly, _, _ := meanMinMax(seriesYs(Series{Points: cont.Points[:10]}))
	if uniEarly < contEarly {
		t.Fatalf("unikernels (%0.f) behind containers (%.0f) early on", uniEarly, contEarly)
	}
}

func TestFigureHelpers(t *testing.T) {
	s := Series{Name: "x", Points: []Point{{1, 2}, {3, 4}}}
	if s.First().Y != 2 || s.Last().Y != 4 {
		t.Fatal("First/Last wrong")
	}
	if (Series{}).First() != (Point{}) || (Series{}).Last() != (Point{}) {
		t.Fatal("empty series First/Last not zero")
	}
	f := Figure{ID: "t", Series: []Series{s}}
	if _, ok := f.SeriesByName("x"); !ok {
		t.Fatal("SeriesByName miss")
	}
	if _, ok := f.SeriesByName("nope"); ok {
		t.Fatal("SeriesByName false hit")
	}
	mean, min, max := meanMinMax([]float64{1, 2, 3})
	if mean != 2 || min != 1 || max != 3 {
		t.Fatal("meanMinMax wrong")
	}
	if m, mn, mx := meanMinMax(nil); m != 0 || mn != 0 || mx != 0 {
		t.Fatal("meanMinMax(nil) not zero")
	}
}
