// Quickstart: build one simulated machine, boot a unikernel, fork it the
// way a process calls fork(), and talk between parent and child over an
// IDC pipe — the full Nephele lifecycle in one file.
package main

import (
	"fmt"
	"log"

	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

func main() {
	// One simulated physical machine: hypervisor, Xenstore, Dom0
	// backends, toolstack and the xencloned daemon, pre-wired.
	platform := core.NewPlatform(core.Options{})

	// Boot a guest with xl: 4 MB of memory, one network interface, a
	// clone budget (cloning must be allowed in the domain config, §5.1).
	meter := platform.NewMeter()
	rec, err := platform.Boot(toolstack.DomainConfig{
		Name:      "quickstart",
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 8,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}, meter)
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := guest.Boot(platform, rec, guest.FlavorUnikraft, meter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("booted %q as domain %d in %v of virtual time\n",
		rec.Config.Name, rec.ID, meter.Elapsed())

	// Put some state into guest memory and set up IPC BEFORE forking:
	// IDC endpoints created with the DOMID_CHILD wildcard are inherited
	// by every future clone.
	addr, err := kernel.Alloc(64)
	if err != nil {
		log.Fatal(err)
	}
	if err := kernel.WriteAt(obs.OpCtx{}, addr, []byte("state before fork")); err != nil {
		log.Fatal(err)
	}
	pipe, err := kernel.NewPipe()
	if err != nil {
		log.Fatal(err)
	}

	// fork(): the guest issues one CLONEOP hypercall; the hypervisor
	// clones vCPUs/memory/grants/event channels, xencloned clones the
	// devices, and both domains continue: the child's continuation runs
	// to completion before Fork returns to the parent.
	forkMeter := platform.NewMeter()
	var childMsg string
	res, err := kernel.Fork(obs.Ctx(forkMeter), 1, func(child *guest.Kernel) {
		// The child sees the parent's memory through COW sharing...
		buf := make([]byte, 17)
		if err := child.ReadAt(addr, buf); err != nil {
			childMsg = "error: " + err.Error()
			return
		}
		// ...writes are isolated...
		child.WriteAt(obs.OpCtx{}, addr, []byte("child's own state"))
		// ...and the inherited pipe reaches the parent.
		cp := pipe.ForChild(child)
		cp.Write([]byte("hello from dom " + fmt.Sprint(child.Dom)))
		childMsg = string(buf)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forked child domain %d: total %v (first stage %v, second stage %v)\n",
		res.Children[0].Dom, res.Clone.Total, res.Clone.FirstStage, res.Clone.SecondStage)

	fmt.Printf("child saw pre-fork state: %q\n", childMsg)

	buf := make([]byte, 64)
	n, err := pipe.Read(buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parent received over IDC pipe: %q\n", buf[:n])

	// The parent's memory is untouched by the child's write.
	check := make([]byte, 17)
	kernel.ReadAt(addr, check)
	fmt.Printf("parent still sees: %q\n", check)

	m := platform.Memory()
	fmt.Printf("machine: %d instances, %d family-shared frames, %d MiB free\n",
		m.Instances, m.SharedFrames, m.HypFreeBytes>>20)
}
