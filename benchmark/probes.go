package main

import (
	"fmt"
	"time"

	"nephele/internal/core"
	"nephele/internal/devices"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// A probe is a direct timed call into one layer's public function, made by a
// probe round at its peak-population checkpoint against the live state (or,
// for devices and netsim, a scratch object: their cost does not depend on
// the platform). Each probe repeats the call and reports the median on both
// clocks; whatever it creates it removes, and the round's end-of-script
// check proves that it did.

// scratchDom is the first of the domain IDs probes hand to the layers for
// their scratch children: far above anything the hypervisor allocates in a
// round, below the reserved pseudo-domains.
const scratchDom = 0x7000

// timeCalls runs call n times, each on a reset meter, undoing it with undo
// (untimed) when given, and returns the median wall and virtual nanoseconds
// of one call.
func (e *env) timeCalls(what string, n int, call func(i int, m *vclock.Meter) error, undo func(i int)) (wallNS, virtNS float64) {
	m := vclock.NewMeter(nil)
	wall := make([]int64, 0, n)
	virt := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		m.Reset()
		t0 := time.Now()
		err := call(i, m)
		wall = append(wall, int64(time.Since(t0)))
		virt = append(virt, int64(m.Elapsed()))
		if err != nil {
			e.fail("probe %s: %v", what, err)
			return 0, 0
		}
		if undo != nil {
			undo(i)
		}
	}
	return float64(medianInt64(wall)), float64(medianInt64(virt))
}

// probeXenstore times xs_clone, a node write and a directory listing
// against the store at its peak size; parent must own a vif.
func (e *env) probeXenstore(p *core.Platform, parent core.DomID) {
	st := p.Store
	src := devices.FrontendDir(uint32(parent), "vif")
	w, v := e.timeCalls("xs_clone", 200, func(i int, m *vclock.Meter) error {
		child := uint32(scratchDom + i)
		return st.Clone(uint32(parent), child, xenstore.CloneDevVif, src, devices.FrontendDir(child, "vif"), m)
	}, func(i int) {
		_ = st.Remove(fmt.Sprintf("/local/domain/%d", scratchDom+i), nil) // a failed clone left nothing to remove
	})
	e.probed["xenstore.xs_clone.wall_us"], e.probed["xenstore.xs_clone.virt_us"] = w/1e3, v/1e3

	w, _ = e.timeCalls("xenstore write", 2000, func(i int, m *vclock.Meter) error {
		return st.Write(fmt.Sprintf("/benchmark/probe/%d", i), "x", m)
	}, nil)
	_ = st.Remove("/benchmark", nil) // absent only if every write failed, already reported
	e.probed["xenstore.write.wall_ns"] = w

	w, _ = e.timeCalls("xenstore directory", 50, func(i int, m *vclock.Meter) error {
		_, err := st.Directory("/local/domain", m)
		return err
	}, nil)
	e.probed["xenstore.directory.wall_ns"] = w
}

// probeDevices times the backend half of device cloning on scratch
// backends: netback's CloneVif (ring copies included) and the console
// backend's Clone.
func (e *env) probeDevices() {
	udev := devices.NewUdevQueue()
	nb := devices.NewNetBackend(udev)
	nb.CreateVif(1, 0, netsim.IP{10, 0, 0, 2}, nil)
	udev.TryRecv()
	w, v := e.timeCalls("vif clone", 300, func(i int, m *vclock.Meter) error {
		_, err := nb.CloneVif(1, uint32(2+i), 0, m)
		return err
	}, func(i int) {
		udev.TryRecv()
		nb.RemoveVif(uint32(2+i), 0, nil)
		udev.TryRecv()
	})
	e.probed["devices.vif_clone.wall_ns"], e.probed["devices.vif_clone.virt_us"] = w, v/1e3

	cb := devices.NewConsoleBackend()
	cb.Create(1, nil)
	w, _ = e.timeCalls("console clone", 300, func(i int, m *vclock.Meter) error {
		return cb.Clone(1, uint32(2+i), m)
	}, func(i int) { cb.Remove(uint32(2 + i)) })
	e.probed["devices.console_clone.wall_ns"] = w
}

// probeMem times Space.CloneOp, eager and lazy, on the live parent's space,
// a COW fault on a child of it, and the release of a child that wrote a
// fiftieth of its pages. parentWrites, when the script's parent writes
// between clones, repeats those writes (contents unchanged) while each
// probed child is alive, so that every sample finds the parent as
// fragmented, and the child as much the last holder of frames, as the
// script's clones and teardowns do.
func (e *env) probeMem(p *core.Platform, parent core.DomID, parentWrites func() error) {
	dom, err := p.HV.Domain(parent)
	if err != nil {
		e.fail("probe mem: %v", err)
		return
	}
	space := dom.Space()
	end := heapEnd(space.Pages())
	var child *mem.Space
	disturb := func() {
		if parentWrites == nil {
			return
		}
		if err := parentWrites(); err != nil {
			e.fail("probe mem: parent write: %v", err)
		}
	}
	release := func(int) {
		if child != nil {
			disturb()
			child.CancelStream()
			if err := child.Release(); err != nil {
				e.fail("probe mem: release: %v", err)
			}
			child = nil
		}
	}
	cloneAs := func(mode mem.CloneMode) func(int, *vclock.Meter) error {
		return func(i int, m *vclock.Meter) error {
			var err error
			child, _, err = space.CloneOpMode(obs.Ctx(m), mem.DomID(scratchDom+i), true, mode)
			return err
		}
	}
	w, v := e.timeCalls("space clone", 9, cloneAs(mem.CloneEager), release)
	e.probed["mem.space_clone.wall_us"], e.probed["mem.space_clone.virt_us"] = w/1e3, v/1e3
	w, _ = e.timeCalls("lazy space clone", 9, cloneAs(mem.CloneLazy), release)
	e.probed["mem.space_clone_lazy.wall_us"] = w / 1e3

	// One more child, written to page by page: the COW faults. It is then
	// the first of the children whose release is timed; the others are
	// cloned and written between the timed calls.
	m := vclock.NewMeter(nil)
	buf := []byte{1}
	wrote := e.distinctPFNs(space.Pages()/50, firstHeapPFN, end)
	prepare := func(i int) error {
		if err := cloneAs(mem.CloneEager)(i, m); err != nil {
			return err
		}
		for _, pfn := range wrote {
			if err := child.Write(pfn, 0, buf, nil); err != nil {
				return err
			}
		}
		disturb()
		return nil
	}
	if err := cloneAs(mem.CloneEager)(0, m); err != nil {
		e.fail("probe mem: %v", err)
		return
	}
	pfns := e.distinctPFNs(512, firstHeapPFN, end)
	sp := child
	w, v = e.timeCalls("cow fault", len(pfns), func(i int, m *vclock.Meter) error {
		return sp.Write(pfns[i], 0, buf, m)
	}, nil)
	e.probed["mem.cow_fault.wall_ns"], e.probed["mem.cow_fault.virt_ns"] = w, v
	disturb()

	w, _ = e.timeCalls("space release", 9, func(int, *vclock.Meter) error {
		if child == nil {
			return fmt.Errorf("no child to release")
		}
		err := child.Release()
		child = nil
		return err
	}, func(i int) {
		if err := prepare(i + 1); err != nil {
			e.fail("probe mem: %v", err)
		}
	})
	release(0)
	e.probed["mem.space_release.wall_us"] = w / 1e3
}

// probeDomainCreate times the hypervisor's share of xl create for a guest
// of the workload's size.
func (e *env) probeDomainCreate(p *core.Platform, pages int) {
	var id core.DomID
	w, _ := e.timeCalls("domain create", 9, func(i int, m *vclock.Meter) error {
		d, err := p.HV.DomainCreate(obs.Ctx(m), pages, 1)
		if err == nil {
			id = d.ID
		}
		return err
	}, func(int) {
		if err := p.HV.DomainDestroy(obs.OpCtx{}, id); err != nil {
			e.fail("probe domain create: destroy: %v", err)
		}
	})
	e.probed["hv.domain_create.wall_us"] = w / 1e3
}

// probeNetsim times planning and committing one 4096-chunk transfer on a
// scratch bonded link.
func (e *env) probeNetsim() {
	link, err := netsim.NewFabric(2, 2).Link(0, 1)
	if err != nil {
		e.fail("probe netsim: %v", err)
		return
	}
	chunks := make([]netsim.Chunk, 4096)
	for i := range chunks {
		chunks[i] = netsim.Chunk{Hash: e.rng.Uint64(), Pages: 1 + e.rng.Intn(8)}
	}
	warm := func(c netsim.Chunk) bool { return c.Hash&1 == 0 }
	w, _ := e.timeCalls("link plan", 50, func(i int, m *vclock.Meter) error {
		link.Commit(link.Plan(chunks, warm))
		return nil
	}, nil)
	e.probed["netsim.link_plan.wall_us"] = w / 1e3
}

// probeToolstack times hashing a fresh snapshot of id and inserting it into
// a scratch snapshot cache over the live pool.
func (e *env) probeToolstack(p *core.Platform, id core.DomID) {
	var hash, insert []float64
	for i := 0; i < 5; i++ {
		img, err := p.XL.Save(id, nil)
		if err != nil {
			e.fail("probe toolstack: save: %v", err)
			return
		}
		t0 := time.Now()
		img.CacheKey()
		hash = append(hash, float64(time.Since(t0)))

		st := toolstack.NewImageStore(p.HV.Memory, 0)
		t0 = time.Now()
		err = st.Insert(img, nil)
		insert = append(insert, float64(time.Since(t0)))
		st.Flush()
		if err != nil {
			e.fail("probe toolstack: insert: %v", err)
			return
		}
	}
	e.probed["toolstack.image_hash.wall_us"] = median(hash) / 1e3
	e.probed["toolstack.imagestore_insert.wall_us"] = median(insert) / 1e3
}

// fuzzTwin stands in for the platform fuzz.Session keeps private: the same
// guest, cloned the same way, dirtied the way one input dirties it. Every
// round reads the simulated footprint and runs its leak check here; a probe
// round also times the write side of the clone — COW faults and clone_reset.
func (e *env) fuzzTwin() error {
	p := newPlatform(e)
	rec, err := p.Boot(toolstack.DomainConfig{Name: "fuzz-target", MemoryMB: 4, VCPUs: 1, MaxClones: 1 << 20}, nil)
	if err != nil {
		return fmt.Errorf("fuzz twin: %w", err)
	}
	if _, err := guest.Boot(p, rec, guest.FlavorUnikraft, nil); err != nil {
		return fmt.Errorf("fuzz twin: %w", err)
	}
	e.baseline(p)
	res, err := p.CloneOp(obs.OpCtx{}, core.CloneSpec{Caller: mem.DomID0, Parent: rec.ID, Count: 1})
	if err != nil {
		return fmt.Errorf("fuzz twin: %w", err)
	}
	child := res[0].Children[0]
	dom, err := p.HV.Domain(child)
	if err != nil {
		return fmt.Errorf("fuzz twin: %w", err)
	}
	// KFX's breakpoint pages, then the pages one input dirties (kernel
	// state, stack, the target's scratch buffer).
	if err := p.HV.CloneCOW(obs.OpCtx{}, child, []mem.PFN{0, 1, 2, 3}); err != nil {
		return fmt.Errorf("fuzz twin: %w", err)
	}
	dirtied := [...]mem.PFN{100, 200, 300}
	m := vclock.NewMeter(nil)
	var faultW, faultV, resetW, resetV []int64
	input := func(i int) error {
		for _, pfn := range dirtied {
			m.Reset()
			t0 := time.Now()
			err := dom.Space().Write(pfn, 0, []byte{byte(i)}, m)
			faultW = append(faultW, int64(time.Since(t0)))
			faultV = append(faultV, int64(m.Elapsed()))
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := input(0); err != nil {
		return fmt.Errorf("fuzz twin: %w", err)
	}
	e.footprint()

	if e.mode == modeProbe {
		const inputs = 2000
		faults := p.Metrics().Counter("mem.cow_faults")
		// The first reset also restores the four breakpoint pages; every
		// later one restores what one input dirtied.
		if _, err := p.HV.CloneReset(obs.OpCtx{}, child); err != nil {
			return fmt.Errorf("fuzz twin: %w", err)
		}
		if err := input(0); err != nil {
			return fmt.Errorf("fuzz twin: %w", err)
		}
		faultW, faultV = faultW[:0], faultV[:0]
		before := faults.Value()
		for i := 0; i < inputs; i++ {
			m.Reset()
			t0 := time.Now()
			restored, err := p.HV.CloneReset(obs.Ctx(m), child)
			resetW = append(resetW, int64(time.Since(t0)))
			resetV = append(resetV, int64(m.Elapsed()))
			if err == nil && restored != len(dirtied) {
				err = fmt.Errorf("restored %d pages, the input dirtied %d", restored, len(dirtied))
			}
			if err == nil {
				err = input(i + 1)
			}
			if err != nil {
				e.fail("probe clone_reset: %v", err)
				break
			}
		}
		e.probed["hv.clone_reset.wall_us"] = float64(medianInt64(resetW)) / 1e3
		e.probed["hv.clone_reset.virt_us"] = float64(medianInt64(resetV)) / 1e3
		e.probed["mem.cow_fault.wall_ns"] = float64(medianInt64(faultW))
		e.probed["mem.cow_fault.virt_ns"] = float64(medianInt64(faultV))
		e.probed["mem.cow_faults_per_op"] = ratio(faults.Value()-before, inputs)
	}

	if err := p.Destroy(child, nil); err != nil {
		return fmt.Errorf("fuzz twin: %w", err)
	}
	e.settle()
	return nil
}
