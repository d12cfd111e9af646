package fuzz

import (
	"testing"
	"time"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func TestMutatorDeterministic(t *testing.T) {
	a := NewMutator(42)
	b := NewMutator(42)
	base := []byte{1, 2, 3, 4}
	for i := 0; i < 50; i++ {
		x, y := a.Mutate(base), b.Mutate(base)
		if string(x) != string(y) {
			t.Fatalf("iteration %d: %v != %v", i, x, y)
		}
	}
}

func TestMutatorNeverMutatesBase(t *testing.T) {
	m := NewMutator(7)
	base := []byte{9, 9, 9, 9}
	for i := 0; i < 100; i++ {
		m.Mutate(base)
	}
	for _, b := range base {
		if b != 9 {
			t.Fatal("base mutated in place")
		}
	}
}

func TestMutatorEmptyInput(t *testing.T) {
	m := NewMutator(1)
	out := m.Mutate(nil)
	if len(out) == 0 {
		t.Fatal("empty output for empty input")
	}
}

func TestSplice(t *testing.T) {
	m := NewMutator(3)
	out := m.Splice([]byte{1, 2, 3}, []byte{4, 5, 6})
	if len(out) == 0 {
		t.Fatal("empty splice")
	}
	if got := m.Splice(nil, []byte{7}); len(got) != 1 || got[0] != 7 {
		t.Fatalf("splice with empty a = %v", got)
	}
	if got := m.Splice([]byte{8}, nil); len(got) != 1 || got[0] != 8 {
		t.Fatalf("splice with empty b = %v", got)
	}
}

func TestCoverage(t *testing.T) {
	c := NewCoverage(1024)
	if !c.Record(1, 2) {
		t.Fatal("first edge not new")
	}
	if c.Record(1, 2) {
		t.Fatal("repeated edge reported new")
	}
	if !c.Record(1, 3) {
		t.Fatal("distinct edge not new")
	}
	if c.Edges() != 2 {
		t.Fatalf("Edges = %d", c.Edges())
	}
}

func TestCorpus(t *testing.T) {
	c := &Corpus{}
	if e := c.Pick(5); len(e.Data) == 0 {
		t.Fatal("empty corpus pick has no data")
	}
	c.Add(CorpusEntry{Data: []byte{1}})
	c.Add(CorpusEntry{Data: []byte{2}})
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if c.Pick(3).Data[0] != 2 {
		t.Fatal("Pick modulo wrong")
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

func TestSyscallTargetOnProcess(t *testing.T) {
	s, err := NewSession(Config{Mode: ModeLinuxProcess, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cov := NewCoverage(4096)
	res, err := s.procTgt.Execute(obs.Ctx(vclock.NewMeter(nil)), []byte{0, 0, 1, 5, 2, 9, 63, 0}, cov, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Syscalls != 4 {
		t.Fatalf("Syscalls = %d", res.Syscalls)
	}
	if res.Edges == 0 || res.NewEdges == 0 {
		t.Fatalf("edges = %d/%d", res.Edges, res.NewEdges)
	}
	if res.DirtyOps != 1 {
		t.Fatalf("DirtyOps = %d (one SysWrite issued)", res.DirtyOps)
	}
}

func TestSessionLinuxProcessThroughput(t *testing.T) {
	s, err := NewSession(Config{Mode: ModeLinuxProcess, GetppidOnly: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meter := vclock.NewMeter(nil)
	const iters = 200
	for i := 0; i < iters; i++ {
		if _, err := s.Iterate(meter); err != nil {
			t.Fatal(err)
		}
	}
	rate := float64(iters) / meter.Elapsed().Seconds()
	// Fig. 9: the native-process baseline averages ~590 exec/s.
	if rate < 350 || rate > 900 {
		t.Fatalf("linux process rate = %.0f exec/s, want ~590", rate)
	}
}

func TestSessionUnikraftCloneThroughputAndDirtyPages(t *testing.T) {
	s, err := NewSession(Config{Mode: ModeUnikraftClone, GetppidOnly: false, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meter := vclock.NewMeter(nil)
	const iters = 150
	for i := 0; i < iters; i++ {
		if _, err := s.Iterate(meter); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
	rate := float64(iters) / meter.Elapsed().Seconds()
	// Fig. 9: Unikraft with cloning averages ~470 exec/s.
	if rate < 280 || rate > 750 {
		t.Fatalf("unikraft+cloning rate = %.0f exec/s, want ~470", rate)
	}
	st := s.Stats()
	if st.Iterations != iters {
		t.Fatalf("Iterations = %d", st.Iterations)
	}
	// ~3 dirty pages per iteration for Unikraft.
	if st.AvgDirtyPages < 0.3 || st.AvgDirtyPages > 4 {
		t.Fatalf("AvgDirtyPages = %.1f, want ~3", st.AvgDirtyPages)
	}
	if st.Edges == 0 || st.Corpus < 2 {
		t.Fatalf("no coverage progress: %+v", st)
	}
}

func TestSessionKernelModuleSlowerThanClone(t *testing.T) {
	run := func(mode Mode) float64 {
		s, err := NewSession(Config{Mode: mode, Seed: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		meter := vclock.NewMeter(nil)
		for i := 0; i < 100; i++ {
			if _, err := s.Iterate(meter); err != nil {
				t.Fatal(err)
			}
		}
		return float64(100) / meter.Elapsed().Seconds()
	}
	clone := run(ModeUnikraftClone)
	module := run(ModeLinuxKernelModule)
	if module >= clone {
		t.Fatalf("kernel module (%.0f/s) not slower than unikraft+cloning (%.0f/s)", module, clone)
	}
	// Paper: ~31.9% lower; accept a broad band.
	if module < clone*0.4 || module > clone*0.95 {
		t.Fatalf("module/clone ratio = %.2f, want ~0.68", module/clone)
	}
}

func TestSessionKernelModuleDirtyPagesDouble(t *testing.T) {
	sClone, _ := NewSession(Config{Mode: ModeUnikraftClone, Seed: 5})
	defer sClone.Close()
	sMod, _ := NewSession(Config{Mode: ModeLinuxKernelModule, Seed: 5})
	defer sMod.Close()
	for i := 0; i < 80; i++ {
		if _, err := sClone.Iterate(nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sMod.Iterate(nil); err != nil {
			t.Fatal(err)
		}
	}
	cp, mp := sClone.Stats().AvgDirtyPages, sMod.Stats().AvgDirtyPages
	if mp <= cp {
		t.Fatalf("module dirty pages (%.1f) not above unikraft's (%.1f)", mp, cp)
	}
	cr, mr := sClone.Stats().AvgResetTime, sMod.Stats().AvgResetTime
	if mr <= cr {
		t.Fatalf("module reset (%v) not above unikraft's (%v)", mr, cr)
	}
}

func TestSessionBootModeTwoPerSecond(t *testing.T) {
	s, err := NewSession(Config{Mode: ModeUnikraftBoot, GetppidOnly: true, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meter := vclock.NewMeter(nil)
	const iters = 10
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := s.Iterate(meter); err != nil {
			t.Fatal(err)
		}
	}
	_ = start
	rate := float64(iters) / meter.Elapsed().Seconds()
	// Fig. 9: recreating the VM per input averages ~2 exec/s.
	if rate < 1 || rate > 8 {
		t.Fatalf("boot-per-input rate = %.1f exec/s, want ~2", rate)
	}
}

func TestSessionClosed(t *testing.T) {
	s, err := NewSession(Config{Mode: ModeLinuxProcess})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Iterate(nil); err != ErrSessionClosed {
		t.Fatalf("iterate after close: %v", err)
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{ModeUnikraftClone, ModeUnikraftBoot, ModeLinuxProcess, ModeLinuxKernelModule, Mode(42)} {
		if m.String() == "" {
			t.Errorf("Mode(%d) empty string", int(m))
		}
	}
}
