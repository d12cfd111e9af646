// Redis snapshot-by-fork (§7.1): boot a Redis unikernel with a 9pfs root,
// populate the database, trigger a background save — the unikernel forks,
// the child serializes a consistent snapshot through 9pfs while the parent
// keeps mutating — and verify the dump on the Dom0 side.
package main

import (
	"fmt"
	"log"
	"strings"

	"nephele/internal/apps"
	"nephele/internal/cloned"
	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

func main() {
	// Redis clones do not need network devices, so I/O cloning skips
	// them (§7.1).
	platform := core.NewPlatform(core.Options{
		Cloned: cloned.Options{SkipNetworkDevices: true},
	})

	rec, err := platform.Boot(toolstack.DomainConfig{
		Name:      "redis",
		MemoryMB:  32,
		VCPUs:     1,
		MaxClones: 16,
		NinePFS:   []toolstack.NinePConfig{{Export: "/export", Tag: "rootfs"}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	kernel, err := guest.Boot(platform, rec, guest.FlavorUnikraft, nil)
	if err != nil {
		log.Fatal(err)
	}
	redis, err := apps.NewRedis(apps.NewKernelHost(kernel), 1024)
	if err != nil {
		log.Fatal(err)
	}

	// Populate: the database lives in guest pages, so fork snapshots
	// are real copy-on-write snapshots.
	if err := redis.MassInsert(obs.OpCtx{}, 5000, 64); err != nil {
		log.Fatal(err)
	}
	redis.Set(obs.OpCtx{}, "user:0", []byte("alice"))
	fmt.Printf("populated %d keys\n", redis.Len())

	// Background save: fork + serialize through 9pfs.
	meter := platform.NewMeter()
	res, err := redis.BGSave(obs.Ctx(meter), "dump.rdb")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("BGSAVE: fork %v, serialize %v, %d keys, %d bytes\n",
		res.ForkTime, res.SerializeTime, res.Keys, res.Bytes)

	// The parent mutates immediately after — a second save proves the
	// first dump stayed consistent.
	redis.Set(obs.OpCtx{}, "user:0", []byte("mallory"))
	dump, err := platform.HostFS.ReadFile("/export/dump.rdb")
	if err != nil {
		log.Fatal(err)
	}
	if strings.Contains(string(dump), "mallory") {
		log.Fatal("snapshot leaked a post-fork write!")
	}
	if !strings.Contains(string(dump), "alice") {
		log.Fatal("snapshot missing pre-fork state")
	}
	fmt.Println("dump verified on Dom0: consistent snapshot, no post-fork writes")

	// The family 9pfs backend is one shared process (§5.2.1).
	fmt.Printf("9pfs backend processes serving the family: %d\n",
		platform.Backends.NineP.ProcessCount())

	res2, err := redis.BGSave(obs.Ctx(platform.NewMeter()), "dump2.rdb")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("second BGSAVE (COW already established): fork %v\n", res2.ForkTime)
}
