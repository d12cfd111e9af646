// Package faas reproduces the Function-as-a-Service use case (§7.3): an
// OpenFaaS-like gateway with requests-per-second autoscaling, deployed
// over two backends — a container runtime (the vanilla baseline) and
// unikernel clones (the Nephele setup, where the paper's KubeKraft wraps
// Unikraft images and the Python runtime is shared over a 9pfs root).
// Figures 10 and 11 are regenerated by running the gateway on a virtual
// timeline and recording memory consumption, instance readiness times and
// served throughput.
package faas

import (
	"errors"
	"fmt"

	"nephele/internal/vclock"
)

// Instance is one function replica.
type Instance struct {
	ID int
	// ReadyAt is when the replica starts serving.
	ReadyAt vclock.Duration
	// MemBytes is the replica's memory footprint once running.
	MemBytes uint64
	// Capacity is the replica's request throughput (req/s).
	Capacity float64
}

// Runtime launches function replicas.
type Runtime interface {
	// Launch starts one replica at virtual time now and returns it; the
	// replica becomes ready at Instance.ReadyAt (> now).
	Launch(now vclock.Duration) (*Instance, error)
	// Name labels the runtime in reports.
	Name() string
}

// Footprints and rates from §7.3: the first instance costs ~85-90 MB in
// both setups (shared services dominate), while every further container
// costs ~220 MB against ~35 MB for a unikernel clone; the native Linux
// stack serves ~600 req/s per instance against ~300 req/s for lwip.
const (
	ContainerFirstMem = 69 << 20 // 90 MB total minus the 21 MB shared services
	ContainerNextMem  = 220 << 20
	ContainerRate     = 600.0

	UnikernelFirstMem = 64 << 20 // 85 MB total minus the 21 MB shared services
	UnikernelNextMem  = 35 << 20
	UnikernelRate     = 300.0
)

// ContainerRuntime models the vanilla OpenFaaS backend: container cold
// starts (image unpack, runtime init) plus the Kubernetes readiness probe
// delay.
type ContainerRuntime struct {
	costs *vclock.CostModel
	count int
}

// NewContainerRuntime creates the baseline backend.
func NewContainerRuntime(costs *vclock.CostModel) *ContainerRuntime {
	if costs == nil {
		costs = vclock.DefaultCosts()
	}
	return &ContainerRuntime{costs: costs}
}

// Name implements Runtime.
func (r *ContainerRuntime) Name() string { return "containers" }

// Launch implements Runtime.
func (r *ContainerRuntime) Launch(now vclock.Duration) (*Instance, error) {
	r.count++
	mem := uint64(ContainerNextMem)
	if r.count == 1 {
		mem = ContainerFirstMem
	}
	// Cold start plus the Kubernetes readiness probe; a mild growth with
	// the replica count models image-cache and kubelet contention.
	start := r.costs.ContainerStart*3/2 + vclock.Duration(r.count-1)*r.costs.ContainerStart/4
	ready := now + start + r.costs.ContainerReady
	return &Instance{
		ID:       r.count,
		ReadyAt:  ready,
		MemBytes: mem,
		Capacity: ContainerRate,
	}, nil
}

// CloneFunc produces one unikernel clone and reports its total clone
// latency; internal/bench wires it to a real core.Platform + guest fork.
type CloneFunc func() (latency vclock.Duration, err error)

// UnikernelRuntime launches replicas by cloning a warm parent unikernel.
type UnikernelRuntime struct {
	clone CloneFunc
	count int
}

// NewUnikernelRuntime creates the Nephele backend. clone may be nil, in
// which case a calibrated constant clone latency is used.
func NewUnikernelRuntime(clone CloneFunc) *UnikernelRuntime {
	return &UnikernelRuntime{clone: clone}
}

// Name implements Runtime.
func (r *UnikernelRuntime) Name() string { return "unikernels" }

// kubeKraftOverhead is the orchestration-side latency of surfacing a clone
// as a Kubernetes-visible replica (KubeKraft wrapping, kubelet update).
const kubeKraftOverhead = 3200 * vclock.Duration(1000*1000) // 3.2s

// Launch implements Runtime.
func (r *UnikernelRuntime) Launch(now vclock.Duration) (*Instance, error) {
	r.count++
	mem := uint64(UnikernelNextMem)
	var startup vclock.Duration
	if r.count == 1 {
		// The first instance is a full boot (VM + Dom0 services).
		mem = UnikernelFirstMem
		startup = 180 * vclock.Duration(1000*1000) // boot ~180ms
	} else if r.clone != nil {
		lat, err := r.clone()
		if err != nil {
			return nil, err
		}
		startup = lat
	} else {
		startup = 25 * vclock.Duration(1000*1000) // clone ~25ms
	}
	return &Instance{
		ID:       r.count,
		ReadyAt:  now + startup + kubeKraftOverhead,
		MemBytes: mem,
		Capacity: UnikernelRate,
	}, nil
}

// The autoscaler is OpenFaaS configured as in §7.3: every query interval it
// adds one instance when the per-instance load exceeds the threshold.
const (
	// queryInterval is how often load is evaluated.
	queryInterval = 30 * vclock.Duration(1000*1000*1000)
	// thresholdRPS is the per-instance load that triggers scaling (the
	// paper's RPS mode).
	thresholdRPS = 10
	// maxInstances bounds the fleet.
	maxInstances = 64
)

// Sample is one timeline point of a gateway run.
type Sample struct {
	T           vclock.Duration
	OfferedRPS  float64
	ServedRPS   float64
	Instances   int // launched
	Ready       int // ready to serve
	MemBytes    uint64
	ServicesMem uint64
}

// RunReport is the outcome of one gateway session.
type RunReport struct {
	Runtime    string
	Samples    []Sample
	ReadyTimes []vclock.Duration // when each instance became ready
	TotalReqs  float64
	ServedReqs float64
}

// ErrNoRuntime reports a gateway without a backend.
var ErrNoRuntime = errors.New("faas: no runtime configured")

// Gateway is the FaaS front door plus autoscaler.
type Gateway struct {
	runtime Runtime
	// servicesMem is the fixed memory of the shared services (Xen
	// toolchain / Kubernetes / OpenFaaS daemons).
	servicesMem uint64

	instances []*Instance
}

// NewGateway creates a gateway over a runtime.
func NewGateway(rt Runtime, servicesMem uint64) *Gateway {
	return &Gateway{runtime: rt, servicesMem: servicesMem}
}

// LoadFunc gives the offered load (requests/second) at virtual time t.
type LoadFunc func(t vclock.Duration) float64

// StepLoad builds a load function that ramps in fixed steps: rps(t) =
// base + step * floor(t/every).
func StepLoad(base, step float64, every vclock.Duration) LoadFunc {
	return func(t vclock.Duration) float64 {
		return base + step*float64(t/every)
	}
}

// Run simulates the gateway for total virtual time, sampling every tick.
// The first instance is launched at t=0 (the deployment); the autoscaler
// evaluates load every queryInterval and launches one replica whenever
// offered-load / ready-instances exceeds thresholdRPS.
func (g *Gateway) Run(total, tick vclock.Duration, load LoadFunc) (*RunReport, error) {
	if g.runtime == nil {
		return nil, ErrNoRuntime
	}
	if tick <= 0 || total <= 0 {
		return nil, fmt.Errorf("faas: bad run geometry %v/%v", total, tick)
	}
	rep := &RunReport{Runtime: g.runtime.Name()}

	first, err := g.runtime.Launch(0)
	if err != nil {
		return nil, err
	}
	g.instances = append(g.instances, first)

	nextQuery := queryInterval
	for t := vclock.Duration(0); t <= total; t += tick {
		offered := load(t)

		ready := 0
		var mem uint64
		var capacity float64
		for _, in := range g.instances {
			if in.ReadyAt <= t {
				ready++
				capacity += in.Capacity
			}
			// Memory is consumed from launch time (allocation
			// happens before readiness).
			mem += in.MemBytes
		}
		served := offered
		if served > capacity {
			served = capacity
		}
		rep.Samples = append(rep.Samples, Sample{
			T:           t,
			OfferedRPS:  offered,
			ServedRPS:   served,
			Instances:   len(g.instances),
			Ready:       ready,
			MemBytes:    g.servicesMem + mem,
			ServicesMem: g.servicesMem,
		})
		rep.TotalReqs += offered * tick.Seconds()
		rep.ServedReqs += served * tick.Seconds()

		if t >= nextQuery {
			nextQuery += queryInterval
			if ready > 0 && offered/float64(ready) > thresholdRPS &&
				len(g.instances) < maxInstances {
				in, err := g.runtime.Launch(t)
				if err != nil {
					return nil, err
				}
				g.instances = append(g.instances, in)
			}
		}
	}
	for _, in := range g.instances {
		rep.ReadyTimes = append(rep.ReadyTimes, in.ReadyAt)
	}
	return rep, nil
}

// Instances reports the launched replica count.
func (g *Gateway) Instances() int { return len(g.instances) }
