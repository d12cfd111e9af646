package faas

import (
	"testing"
	"time"

	"nephele/internal/vclock"
)

func sec(n float64) vclock.Duration { return vclock.Duration(n * float64(time.Second)) }

func TestStepLoad(t *testing.T) {
	load := StepLoad(10, 5, sec(30))
	if got := load(0); got != 10 {
		t.Fatalf("load(0) = %v", got)
	}
	if got := load(sec(31)); got != 15 {
		t.Fatalf("load(31s) = %v", got)
	}
	if got := load(sec(95)); got != 25 {
		t.Fatalf("load(95s) = %v", got)
	}
}

func TestContainerRuntimeFootprints(t *testing.T) {
	rt := NewContainerRuntime(nil)
	first, err := rt.Launch(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.MemBytes != ContainerFirstMem {
		t.Fatalf("first container mem = %d", first.MemBytes)
	}
	second, _ := rt.Launch(0)
	if second.MemBytes != ContainerNextMem {
		t.Fatalf("second container mem = %d", second.MemBytes)
	}
	if second.ReadyAt <= first.ReadyAt {
		t.Fatal("container readiness should slow down with count")
	}
	if first.Capacity != ContainerRate {
		t.Fatalf("capacity = %v", first.Capacity)
	}
}

func TestUnikernelRuntimeFootprints(t *testing.T) {
	calls := 0
	rt := NewUnikernelRuntime(func() (vclock.Duration, error) {
		calls++
		return 25 * vclock.Duration(1000*1000), nil
	})
	first, err := rt.Launch(0)
	if err != nil {
		t.Fatal(err)
	}
	if first.MemBytes != UnikernelFirstMem {
		t.Fatalf("first unikernel mem = %d", first.MemBytes)
	}
	if calls != 0 {
		t.Fatal("first instance used the clone path")
	}
	second, _ := rt.Launch(0)
	if calls != 1 {
		t.Fatal("second instance did not clone")
	}
	if second.MemBytes != UnikernelNextMem {
		t.Fatalf("clone mem = %d", second.MemBytes)
	}
	// Clones become ready much sooner than containers.
	crt := NewContainerRuntime(nil)
	crt.Launch(0)
	c2, _ := crt.Launch(0)
	if second.ReadyAt >= c2.ReadyAt {
		t.Fatalf("clone ready at %v, container at %v", second.ReadyAt, c2.ReadyAt)
	}
}

func TestGatewayScalesOnLoad(t *testing.T) {
	g := NewGateway(NewUnikernelRuntime(nil), 21<<20)
	// Offered load rises to 35 RPS: with a 10 RPS threshold the fleet
	// should grow beyond one instance.
	rep, err := g.Run(sec(150), sec(1), StepLoad(5, 10, sec(30)))
	if err != nil {
		t.Fatal(err)
	}
	if g.Instances() < 3 {
		t.Fatalf("instances = %d, want >= 3", g.Instances())
	}
	// Memory grows by ~35 MB per additional clone.
	firstMem := rep.Samples[0].MemBytes
	lastMem := rep.Samples[len(rep.Samples)-1].MemBytes
	if lastMem <= firstMem {
		t.Fatal("memory did not grow with instances")
	}
	growth := lastMem - firstMem
	wantMax := uint64(g.Instances()) * UnikernelNextMem
	if growth > wantMax {
		t.Fatalf("memory growth %d exceeds %d", growth, wantMax)
	}
}

func TestGatewayContainersUseMoreMemory(t *testing.T) {
	run := func(rt Runtime) *RunReport {
		g := NewGateway(rt, 21<<20)
		rep, err := g.Run(sec(200), sec(1), StepLoad(5, 10, sec(30)))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	cont := run(NewContainerRuntime(nil))
	uni := run(NewUnikernelRuntime(nil))
	cl := cont.Samples[len(cont.Samples)-1].MemBytes
	ul := uni.Samples[len(uni.Samples)-1].MemBytes
	if ul >= cl {
		t.Fatalf("unikernel memory (%d MB) not below containers (%d MB)", ul>>20, cl>>20)
	}
}

func TestGatewayClonesReactFaster(t *testing.T) {
	// Fig. 11: the second/third instances are ready much earlier with
	// clones (3/14/25 s) than with containers (33/42/56 s).
	run := func(rt Runtime) []vclock.Duration {
		g := NewGateway(rt, 21<<20)
		rep, err := g.Run(sec(200), sec(1), StepLoad(15, 15, sec(30)))
		if err != nil {
			t.Fatal(err)
		}
		return rep.ReadyTimes
	}
	cont := run(NewContainerRuntime(nil))
	uni := run(NewUnikernelRuntime(nil))
	if len(cont) < 3 || len(uni) < 3 {
		t.Fatalf("fleets too small: %d/%d", len(cont), len(uni))
	}
	for i := 1; i < 3; i++ {
		if uni[i] >= cont[i] {
			t.Fatalf("instance %d: clone ready at %v, container at %v", i, uni[i], cont[i])
		}
	}
}

func TestGatewayServedThroughputTracksLoadWithClones(t *testing.T) {
	run := func(rt Runtime) float64 {
		g := NewGateway(rt, 21<<20)
		rep, err := g.Run(sec(150), sec(1), StepLoad(20, 20, sec(30)))
		if err != nil {
			t.Fatal(err)
		}
		return rep.ServedReqs / rep.TotalReqs
	}
	contRatio := run(NewContainerRuntime(nil))
	uniRatio := run(NewUnikernelRuntime(nil))
	if uniRatio <= contRatio {
		t.Fatalf("clone served ratio (%.2f) not above containers (%.2f)", uniRatio, contRatio)
	}
}

func TestGatewayErrors(t *testing.T) {
	g := NewGateway(nil, 0)
	if _, err := g.Run(sec(10), sec(1), StepLoad(1, 0, sec(30))); err != ErrNoRuntime {
		t.Fatalf("run without runtime: %v", err)
	}
	g2 := NewGateway(NewContainerRuntime(nil), 0)
	if _, err := g2.Run(0, 0, StepLoad(1, 0, sec(30))); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

func TestGatewayMaxInstances(t *testing.T) {
	// A load no fleet can absorb adds one instance per query until the cap.
	g := NewGateway(NewUnikernelRuntime(nil), 0)
	if _, err := g.Run(2*maxInstances*queryInterval, sec(1), StepLoad(1e6, 0, sec(30))); err != nil {
		t.Fatal(err)
	}
	if g.Instances() != maxInstances {
		t.Fatalf("instances = %d, want capped at %d", g.Instances(), maxInstances)
	}
}

func TestRuntimeNames(t *testing.T) {
	if NewContainerRuntime(nil).Name() != "containers" {
		t.Fatal("container name")
	}
	if NewUnikernelRuntime(nil).Name() != "unikernels" {
		t.Fatal("unikernel name")
	}
}
