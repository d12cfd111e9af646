// Command xl is a small interactive demonstration of the toolstack: it
// builds one simulated machine, then executes a script of xl-like
// subcommands against it. Because the platform lives and dies with the
// process, the typical use is a comma-separated command list:
//
//	xl -run "create web, clone web 3, list, destroy web-clone-3, list"
//
// Supported commands:
//
//	create <name> [memMB]   boot a guest
//	clone <name> [n]        clone a running guest n times (default 1)
//	list                    print the domain table
//	memory                  print the machine memory report
//	destroy <name>          tear a guest down
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

func main() {
	run := flag.String("run", "create web, clone web 2, list, memory", "comma-separated command script")
	flag.Parse()

	p := core.NewPlatform(core.Options{SkipNameCheck: false})
	kernels := map[string]*guest.Kernel{}

	for _, raw := range strings.Split(*run, ",") {
		args := strings.Fields(strings.TrimSpace(raw))
		if len(args) == 0 {
			continue
		}
		if err := execute(p, kernels, args); err != nil {
			fmt.Fprintf(os.Stderr, "xl: %s: %v\n", strings.Join(args, " "), err)
			os.Exit(1)
		}
	}
}

func execute(p *core.Platform, kernels map[string]*guest.Kernel, args []string) error {
	switch args[0] {
	case "create":
		if len(args) < 2 {
			return fmt.Errorf("create needs a name")
		}
		memMB := 4
		if len(args) > 2 {
			if v, err := strconv.Atoi(args[2]); err == nil {
				memMB = v
			}
		}
		meter := p.NewMeter()
		rec, err := p.Boot(toolstack.DomainConfig{
			Name:      args[1],
			MemoryMB:  memMB,
			VCPUs:     1,
			MaxClones: 1024,
			Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
		}, meter)
		if err != nil {
			return err
		}
		k, err := guest.Boot(p, rec, guest.FlavorUnikraft, meter)
		if err != nil {
			return err
		}
		kernels[args[1]] = k
		fmt.Printf("created %s as domain %d in %v (virtual)\n", args[1], rec.ID, meter.Elapsed())
		return nil

	case "clone":
		if len(args) < 2 {
			return fmt.Errorf("clone needs a name")
		}
		k, ok := kernels[args[1]]
		if !ok {
			return fmt.Errorf("no running guest %q", args[1])
		}
		n := 1
		if len(args) > 2 {
			if v, err := strconv.Atoi(args[2]); err == nil {
				n = v
			}
		}
		meter := p.NewMeter()
		res, err := k.Fork(obs.Ctx(meter), n, nil)
		if err != nil {
			return err
		}
		for _, ck := range res.Children {
			rec, err := p.XL.Record(ck.Dom)
			if err != nil {
				return err
			}
			kernels[rec.Config.Name] = ck
		}
		fmt.Printf("cloned %s %d time(s) in %v (virtual): first stage %v, second stage %v\n",
			args[1], n, res.Clone.Total, res.Clone.FirstStage, res.Clone.SecondStage)
		return nil

	case "list":
		fmt.Printf("%-6s %-24s %-8s %s\n", "domid", "name", "mem", "family")
		names := make([]string, 0, len(kernels))
		for name := range kernels {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool { return kernels[names[i]].Dom < kernels[names[j]].Dom })
		for _, name := range names {
			k := kernels[name]
			rec, err := p.XL.Record(k.Dom)
			if err != nil {
				continue
			}
			dom, err := p.HV.Domain(k.Dom)
			if err != nil {
				continue
			}
			family := "root"
			if parent, ok := dom.Parent(); ok {
				family = fmt.Sprintf("child of %d", parent)
			}
			fmt.Printf("%-6d %-24s %-8s %s\n", k.Dom, name, fmt.Sprintf("%dMB", rec.Config.MemoryMB), family)
		}
		return nil

	case "memory":
		m := p.Memory()
		fmt.Printf("hypervisor: %d/%d MiB free | shared frames: %d | dom0 used: %d MiB | instances: %d\n",
			m.HypFreeBytes>>20, m.HypTotalBytes>>20, m.SharedFrames, m.Dom0UsedBytes>>20, m.Instances)
		return nil

	case "destroy":
		if len(args) < 2 {
			return fmt.Errorf("destroy needs a name")
		}
		k, ok := kernels[args[1]]
		if !ok {
			return fmt.Errorf("no running guest %q", args[1])
		}
		if err := p.Destroy(k.Dom, nil); err != nil {
			return err
		}
		delete(kernels, args[1])
		fmt.Printf("destroyed %s\n", args[1])
		return nil

	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
}
