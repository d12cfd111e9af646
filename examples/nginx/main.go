// NGINX worker scaling (§7.1): boot one NGINX unikernel, fork three
// worker clones so every core runs its own pinned worker behind a Linux
// bond, push a wrk-like load through the real switching path, and compare
// against the socket-sharding process deployment.
package main

import (
	"fmt"
	"log"

	"nephele/internal/apps"
	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/netsim"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

func main() {
	platform := core.NewPlatform(core.Options{})

	// Boot the master and fork 3 workers: 4 clones total, one per core
	// of the paper's machine. The clones keep identical MAC+IP; the
	// bond in Dom0 spreads flows by the layer3+4 hash.
	rec, err := platform.Boot(toolstack.DomainConfig{
		Name:      "nginx-master",
		MemoryMB:  8,
		VCPUs:     1,
		MaxClones: 16,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 80}}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	master, err := guest.Boot(platform, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		log.Fatal(err)
	}
	forkMeter := platform.NewMeter()
	res, err := master.Fork(3, nil, forkMeter)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forked %d workers in %v; bond aggregates %d identical interfaces\n",
		len(res.Children), forkMeter.Elapsed(), platform.Bond.Slaves())

	// Serve one end-to-end request through the real packet path to show
	// the data plane works: host -> bond -> hashed clone -> response.
	req := netsim.Packet{
		SrcIP: platform.Host.IPAddr(), DstIP: netsim.IP{10, 0, 0, 80},
		SrcPort: 40001, DstPort: 80, Proto: netsim.ProtoTCP,
		Payload: []byte("GET /index.html HTTP/1.1\r\n\r\n"),
	}
	platform.Bond.Deliver(req)
	workers := append([]*guest.Kernel{master}, res.Children...)
	for _, w := range workers {
		if pkt, ok := w.TryRecv(); ok {
			resp := apps.HandleHTTP(string(pkt.Payload), "<html>nephele nginx</html>")
			fmt.Printf("domain %d served the request: %.15q...\n", w.Dom, resp)
			break
		}
	}

	// Throughput comparison (the Fig. 7 harness): clones vs processes.
	costs := vclock.DefaultCosts()
	fmt.Printf("%-10s %16s %16s\n", "workers", "processes req/s", "clones req/s")
	for n := 1; n <= 4; n++ {
		proc := apps.NewNginx(apps.DeployProcesses, n, costs)
		pr, err := proc.Run(40000, 400*n)
		if err != nil {
			log.Fatal(err)
		}
		clone := apps.NewNginx(apps.DeployClones, n, costs)
		cr, err := clone.Run(40000, 400*n)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10d %16.0f %16.0f\n", n, pr.Throughput, cr.Throughput)
	}
}
