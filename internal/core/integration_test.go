package core

import (
	"fmt"
	"sync"
	"testing"

	"nephele/internal/devices"
	"nephele/internal/toolstack"
)

func TestVbdThroughFullClonePath(t *testing.T) {
	p := smallPlatform(Options{SkipNameCheck: true})
	cfg := udpServerConfig("disky")
	cfg.Vbds = []toolstack.VbdConfig{{}}
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := p.Backends.Vbd.Vbd(uint32(rec.ID), 0)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]byte, devices.SectorSize)
	for i := range dirty {
		dirty[i] = 'p'
	}
	if err := pv.WriteSector(3, dirty, nil); err != nil {
		t.Fatal(err)
	}

	res, err := fork(p, rec.ID, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	child := res.Children[0]
	// The second stage cloned the vbd: Xenstore entries + backend state.
	st, err := devices.DeviceState(p.Store, uint32(child), "vbd", 0, nil)
	if err != nil || st != devices.StateConnected {
		t.Fatalf("child vbd state = %v, %v", st, err)
	}
	cv, err := p.Backends.Vbd.Vbd(uint32(child), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot semantics at the block level.
	got, _ := cv.ReadSector(3)
	if got[0] != 'p' {
		t.Fatalf("child missed parent's pre-clone write: %q", got[:4])
	}
	pv.WriteSector(3, make([]byte, devices.SectorSize), nil)
	got, _ = cv.ReadSector(3)
	if got[0] != 'p' {
		t.Fatal("child sees post-clone parent write")
	}
	// Teardown removes both devices.
	if err := p.Destroy(child, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Backends.Vbd.Vbd(uint32(child), 0); err == nil {
		t.Fatal("child vbd survived destroy")
	}
}

func TestDeepFamilyTree(t *testing.T) {
	// Three generations, multiple children each; all family-related and
	// all functional.
	p := NewPlatform(Options{
		MemoryBytes:   2 << 30,
		SkipNameCheck: true,
	})
	root, _ := p.Boot(udpServerConfig("gen0"), nil)
	gen := []DomID{root.ID}
	for depth := 0; depth < 3; depth++ {
		var next []DomID
		for _, id := range gen {
			res, err := fork(p, id, 2, nil)
			if err != nil {
				t.Fatalf("depth %d clone of %d: %v", depth, id, err)
			}
			next = append(next, res.Children...)
		}
		gen = next
	}
	if len(gen) != 8 {
		t.Fatalf("leaf generation = %d, want 8", len(gen))
	}
	// Every leaf is in the root's family and is a descendant.
	for _, leaf := range gen {
		if !p.HV.SameFamily(root.ID, leaf) {
			t.Fatalf("leaf %d not in family", leaf)
		}
		if !p.HV.IsDescendant(leaf, root.ID) {
			t.Fatalf("leaf %d not a descendant", leaf)
		}
	}
	// 1 + 2 + 4 + 8 = 15 instances.
	if got := p.Memory().Instances; got != 15 {
		t.Fatalf("instances = %d, want 15", got)
	}
	// Destroy a middle-generation domain: the rest keeps working.
	mid, _ := p.HV.Domain(gen[0])
	parentID, _ := mid.Parent()
	if err := p.Destroy(parentID, nil); err != nil {
		t.Fatal(err)
	}
	leafDom, _ := p.HV.Domain(gen[0])
	if err := leafDom.Space().Write(0, 0, []byte("still alive"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClonesOfDistinctParents(t *testing.T) {
	// Clones of different parents can proceed concurrently: guests on
	// the same machine have independent families. The platform Clone is
	// synchronous per call, so concurrency is across goroutines.
	p := NewPlatform(Options{
		MemoryBytes:   2 << 30,
		SkipNameCheck: true,
	})
	const parents = 4
	ids := make([]DomID, parents)
	for i := range ids {
		rec, err := p.Boot(udpServerConfig(fmt.Sprintf("par-%d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = rec.ID
	}
	var wg sync.WaitGroup
	errs := make(chan error, parents)
	for _, id := range ids {
		wg.Add(1)
		go func(id DomID) {
			defer wg.Done()
			for j := 0; j < 5; j++ {
				if _, err := fork(p, id, 1, nil); err != nil {
					errs <- fmt.Errorf("clone of %d: %w", id, err)
					return
				}
			}
		}(id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Memory().Instances; got != parents*6 {
		t.Fatalf("instances = %d, want %d", got, parents*6)
	}
}

func TestStoreLogRotationSpikeVisibleInCloneSeries(t *testing.T) {
	// With the store a few writes short of its rotation period, one of
	// the next clone operations absorbs the rotation stall — the Fig. 4
	// spikes.
	p := smallPlatform(Options{SkipNameCheck: true})
	rec, _ := p.Boot(udpServerConfig("spiky"), nil)
	for p.Store.Stats().Writes%storeLogRotateEvery < storeLogRotateEvery-5 {
		if err := p.Store.Write("/spam", "x", nil); err != nil {
			t.Fatal(err)
		}
	}
	var durations []float64
	for i := 0; i < 40; i++ {
		res, err := fork(p, rec.ID, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		durations = append(durations, res.Total.Seconds()*1e3)
	}
	min, max := durations[0], durations[0]
	for _, d := range durations {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max < min+500 {
		t.Fatalf("no rotation spike observed: min %.1f ms, max %.1f ms", min, max)
	}
	if p.Store.Stats().LogRotations == 0 {
		t.Fatal("no rotations recorded")
	}
}
