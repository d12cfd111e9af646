// Sandbox fleet: the serverless code-interpreter pattern (E2B, Firecracker
// microVM pools) built from Nephele's sharing machinery. A template guest
// is prepared once, snapshotted, and kept resident in a content-addressed
// image cache; every incoming task gets a short-lived sandbox materialized
// from the cache by COW-sharing the resident frames — no page copies —
// runs against its own copy-on-write disk view, has its dirty blocks
// committed back out, and is destroyed.
package main

import (
	"bytes"
	"fmt"
	"log"

	"nephele/internal/core"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

const fleetSize = 12

func main() {
	platform := core.NewPlatform(core.Options{SkipNameCheck: true})

	// --- Prepare the template: boot, warm up, snapshot. ---
	rec, err := platform.Boot(toolstack.DomainConfig{
		Name:      "interpreter-template",
		MemoryMB:  16,
		VCPUs:     1,
		MaxClones: 1 << 20,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
		Vbds:      []toolstack.VbdConfig{{}},
	}, nil)
	if err != nil {
		log.Fatal(err)
	}
	dom, err := platform.HV.Domain(rec.ID)
	if err != nil {
		log.Fatal(err)
	}
	// The warm-up stands in for importing the interpreter runtime: dirty
	// a quarter of the guest's memory with recognizable state.
	space := dom.Space()
	page := bytes.Repeat([]byte{0x42}, mem.PageSize)
	for pfn := 0; pfn < 1024; pfn++ {
		if err := space.WriteOp(obs.OpCtx{}, mem.PFN(pfn), 0, page); err != nil {
			log.Fatal(err)
		}
	}
	image, err := platform.XL.Save(rec.ID, nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := platform.Destroy(rec.ID, nil); err != nil {
		log.Fatal(err)
	}

	// The cache keeps the snapshot's pages resident (bounded here to
	// 128 MB), keyed by content hash: saving the same template twice, or
	// on another manager, hits the same entry.
	store := platform.NewImageStore(128)

	fmt.Printf("template snapshot: %d pages in %d runs, key %x\n",
		image.Pages(), image.Runs(), image.CacheKey())

	// --- Serve the task queue. ---
	var coldLat vclock.Duration
	var warm []vclock.Duration
	sector := bytes.Repeat([]byte{0xc3}, 512)
	for task := 0; task < fleetSize; task++ {
		meter := platform.NewMeter()
		sbx, served, err := platform.XL.RestoreCachedOp(obs.Ctx(meter), store, image, fmt.Sprintf("sandbox-%d", task))
		if err != nil {
			log.Fatal(err)
		}

		// The sandbox runs its task: scribble on the scratch disk.
		vbd, err := platform.Backends.Vbd.Vbd(uint32(sbx.ID), 0)
		if err != nil {
			log.Fatal(err)
		}
		for s := uint64(0); s < 8; s++ {
			if err := vbd.WriteSector(obs.OpCtx{}, s, sector); err != nil {
				log.Fatal(err)
			}
		}

		// Task done: commit the dirty blocks back out (persisting the
		// sandbox's outputs), then tear the sandbox down.
		sectors, data := vbd.Modified()
		committed := 0
		for i := range sectors {
			committed += len(data[i])
		}
		if err := platform.Destroy(sbx.ID, nil); err != nil {
			log.Fatal(err)
		}

		kind := "warm"
		if !served {
			kind = "cold"
			coldLat = meter.Elapsed()
		} else {
			warm = append(warm, meter.Elapsed())
		}
		fmt.Printf("task %2d: %s spawn in %8v, committed %d dirty bytes\n",
			task, kind, meter.Elapsed(), committed)
	}

	// --- Report. ---
	var sum vclock.Duration
	for _, d := range warm {
		sum += d
	}
	stats := store.Stats()
	fmt.Printf("\nfleet of %d: 1 cold + %d warm spawns\n", fleetSize, len(warm))
	fmt.Printf("cold spawn %v, warm mean %v (%.1fx)\n",
		coldLat, sum/vclock.Duration(len(warm)),
		float64(coldLat)/float64(sum/vclock.Duration(len(warm))))
	fmt.Printf("cache: %d hits / %d misses, %d pages resident in %d chunks, %d frames COW-adopted\n",
		stats.Hits, stats.Misses, stats.ResidentPages, stats.Chunks, stats.AdoptedFrames)
}
