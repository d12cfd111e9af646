// Cross-machine migration: the reason Nephele keeps the p2m map around
// (§5.2). A two-host cluster is built; a guest boots on the first host,
// accumulates state, and is migrated over the cluster's transport (pause,
// snapshot, ship the pages the target's cache lacks, rebuild the page table
// through the p2m on the target, destroy the source). The example also
// shows the §8 policy: clone-family members refuse to move, because
// separating them would break page sharing.
package main

import (
	"fmt"
	"log"

	"nephele/internal/cluster"
	"nephele/internal/core"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

func main() {
	c := cluster.New(cluster.Options{Hosts: 2})
	machineA, machineB := c.Host(0).P, c.Host(1).P

	rec, err := machineA.Boot(toolstack.DomainConfig{
		Name:      "worker",
		MemoryMB:  8,
		VCPUs:     1,
		MaxClones: 8,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 5}}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	dom, _ := machineA.HV.Domain(rec.ID)
	if err := dom.Space().Write(10, 0, []byte("accumulated state"), nil); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("machine A: %s | machine B: %s\n", machineA, machineB)

	res, err := c.Migrate(obs.Ctx(machineA.NewMeter()), 0, rec.ID, 1, "")
	if err != nil {
		log.Fatal(err)
	}
	moved := res.Children[0]
	newRec, err := machineB.XL.Record(moved)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("migrated %q: %d KiB on the wire, downtime %v (virtual)\n",
		newRec.Config.Name, res.TransferBytes>>10, res.Total)

	newDom, _ := machineB.HV.Domain(moved)
	buf := make([]byte, 17)
	newDom.Space().Read(10, 0, buf)
	fmt.Printf("state on machine B: %q\n", buf)
	fmt.Printf("machine A: %s | machine B: %s\n", machineA, machineB)

	// The migrated guest clones normally on its new home...
	cresAll, err := machineB.CloneOp(obs.OpCtx{},
		core.CloneSpec{Caller: moved, Parent: moved, Count: 1})
	if err != nil {
		log.Fatal(err)
	}
	cres := cresAll[0]
	fmt.Printf("cloned on machine B: child domain %d in %v\n",
		cres.Children[0], cres.Total)

	// ...but family members are pinned to their machine (§8: moving
	// clones apart would break the page-sharing density win).
	if _, err := c.Migrate(obs.OpCtx{}, 1, cres.Children[0], 0, ""); err != nil {
		fmt.Printf("migrating the clone is refused, as designed: %v\n", err)
	}
}
