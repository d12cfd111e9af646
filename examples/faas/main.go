// Function-as-a-Service autoscaling (§7.3): run an OpenFaaS-like gateway
// over two backends — containers and unikernel clones — under a ramping
// load, and report memory footprints, readiness times and served
// throughput. The unikernel backend forks a real warm parent through the
// full two-stage clone path.
package main

import (
	"fmt"
	"log"
	"time"

	"nephele/internal/core"
	"nephele/internal/faas"
	"nephele/internal/guest"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

func main() {
	sec := func(n int) vclock.Duration { return vclock.Duration(n) * vclock.Duration(time.Second) }
	load := faas.StepLoad(15, 15, sec(30))

	// --- container baseline ---
	cg := faas.NewGateway(faas.NewContainerRuntime(nil), 21<<20)
	contRep, err := cg.Run(sec(180), sec(1), load)
	if err != nil {
		log.Fatal(err)
	}

	// --- unikernel clones over a real platform ---
	platform := core.NewPlatform(core.Options{})
	platform.HostFS.WriteFile("export/python/handler.py",
		[]byte("def handle(req):\n    return 'Hello World'\n"))
	rec, err := platform.Boot(toolstack.DomainConfig{
		Name: "fn-python", MemoryMB: 16, VCPUs: 1, MaxClones: 64,
		Vifs:    []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 9}}},
		NinePFS: []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	parent, err := guest.Boot(platform, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		log.Fatal(err)
	}
	runtime := faas.NewUnikernelRuntime(func() (vclock.Duration, error) {
		res, err := parent.Fork(obs.OpCtx{}, 1, nil)
		if err != nil {
			return 0, err
		}
		return res.Clone.Total, nil
	})
	ug := faas.NewGateway(runtime, 21<<20)
	uniRep, err := ug.Run(sec(180), sec(1), load)
	if err != nil {
		log.Fatal(err)
	}

	report := func(rep *faas.RunReport) {
		last := rep.Samples[len(rep.Samples)-1]
		fmt.Printf("%-11s: %d instances, %4d MB final, %5.1f%% of load served, ready at",
			rep.Runtime, last.Instances, last.MemBytes>>20, rep.ServedReqs/rep.TotalReqs*100)
		for _, t := range rep.ReadyTimes {
			fmt.Printf(" %.0fs", t.Seconds())
		}
		fmt.Println()
	}
	report(contRep)
	report(uniRep)

	lastC := contRep.Samples[len(contRep.Samples)-1]
	lastU := uniRep.Samples[len(uniRep.Samples)-1]
	fmt.Printf("\nunikernel clones use %.1fx less memory at the same offered load\n",
		float64(lastC.MemBytes)/float64(lastU.MemBytes))
	fmt.Printf("machine after the run: %s\n", platform)
}
