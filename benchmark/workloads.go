package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"nephele/internal/cluster"
	"nephele/internal/core"
	"nephele/internal/devices"
	"nephele/internal/fuzz"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// refKind selects the simulated endpoint vclock.ref_err_pct compares with
// the paper.
type refKind int

const (
	refNone       refKind = iota // no reference in the paper: unvalidated
	refFirstOpMS                 // virtual ms of the first instantiation on an empty machine
	refOpsPerVirt                // ops per virtual second
)

// workload is one fixed, seeded op script. Names are contract: later issues
// cite them.
type workload struct {
	Name string
	// Why records why the workload exists — which layers do its work and
	// which stay idle.
	Why string
	// Primary names the op whose virtual latency virt_p50_ms/virt_tail_ms
	// report.
	Primary string
	// Ref/RefValue are the paper endpoint the simulated clock is checked
	// against (Figs. 4 and 9).
	Ref      refKind
	RefValue float64
	RefText  string
	// Jitter is the relative tolerance within which a workload's virtual
	// times repeat between rounds; 0 is bit for bit. Only the workloads
	// whose timed script creates domains through XL.Create need any:
	// toolstack.introduce and devices.WriteDevicePair issue their Xenstore
	// writes in Go map order, the per-request StorePerNode charge depends on
	// how many directories exist at that moment, and so one boot's virtual
	// time moves by a few hundred nanoseconds from run to run.
	Jitter float64
	run    func(e *env) error
}

// createJitter bounds the map-order jitter of XL.Create: under 1 µs in a
// boot of ~150 ms.
const createJitter = 5e-5

var workloads = []*workload{
	{
		Name:    "clone-fanout",
		Why:     "Paper headline (Fig. 4): one 4 MB parent forks 4000 children; hv first stage, cloned, xenstore xs_clone, devices and the bond do the work, mem is idle.",
		Primary: "CloneOp(Count=1)",
		Ref:     refFirstOpMS, RefValue: 20, RefText: "first clone vs the paper's 20 ms",
		run: runCloneFanout,
	},
	{
		Name:    "create-churn",
		Why:     "Boot, save, cold restore, cached restore beside 1000 resident guests: toolstack, xenstore and devices dominate, the clone path and mem are idle.",
		Primary: "Boot + guest boot",
		Ref:     refFirstOpMS, RefValue: 160, RefText: "first boot vs the paper's 160 ms",
		Jitter: createJitter,
		run:    runCreateChurn,
	},
	{
		Name:    "clone-bigmem",
		Why:     "Eager and lazy clones of a 256 MB parent with writes on both sides: mem's share side (extent walk, ShareN, streamer, demand faults) is nearly all of the wall time.",
		Primary: "eager CloneOp(Count=1)",
		run:     runCloneBigmem,
	},
	{
		Name:    "fuzz-reset",
		Why:     "KFX-style campaigns (Fig. 9): one clone each, then COW faults and clone_reset per input; mem's write side and hv.CloneReset, the clone path all but idle.",
		Primary: "Session.Iterate",
		Ref:     refOpsPerVirt, RefValue: 470, RefText: "executions per virtual second vs the paper's 470",
		run: runFuzzReset,
	},
	{
		Name:    "remote-fanout",
		Why:     "Placed clones from host 0 to three peers, cold and dedup-warm caches: cluster, netsim.Fabric, XL.Save+hash and ImageStore do the work, the local clone path is idle.",
		Primary: "placed CloneOp(Count=3, Spread)",
		Jitter:  createJitter,
		run:     runRemoteFanout,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// guestCfg is the Fig. 4 guest: a Mini-OS UDP server with one vif.
func guestCfg(name string, mb int) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  mb,
		VCPUs:     1,
		MaxClones: 1 << 20,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
}

// firstHeapPFN skips the low pages the guest kernel image occupies.
const firstHeapPFN = 16

// heapEnd is one past the last page a guest with a vif may write freely:
// below the I/O rings and the three Xen special pages.
func heapEnd(pages int) int {
	return pages - 3 - devices.RXRingPages - devices.TXRingPages
}

// mix derives a non-zero 64-bit page value from the seed and three
// coordinates (splitmix64 finalizer), so every writer and iteration leaves
// distinguishable bytes.
func mix(seed int64, tag, iter, pfn uint64) uint64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(tag+1) + 0xBF58476D1CE4E5B9*(iter+1) + 0x94D049BB133111EB*(pfn+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return (z ^ (z >> 31)) | 1
}

// bootGuest boots one untimed set-up guest.
func bootGuest(p *core.Platform, cfg toolstack.DomainConfig, flavor guest.Flavor) (*toolstack.Record, *mem.Space, error) {
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up boot of %s: %w", cfg.Name, err)
	}
	if _, err := guest.Boot(p, rec, flavor, nil); err != nil {
		return nil, nil, fmt.Errorf("set-up guest boot of %s: %w", cfg.Name, err)
	}
	dom, err := p.HV.Domain(rec.ID)
	if err != nil {
		return nil, nil, err
	}
	return rec, dom.Space(), nil
}

// fill writes val(pfn) into each of pfns outside any op (set-up and model
// maintenance), recording the values in model.
func fill(sp *mem.Space, pfns []mem.PFN, val func(mem.PFN) uint64, model map[mem.PFN]uint64) error {
	var buf [8]byte
	for _, pfn := range pfns {
		v := val(pfn)
		binary.LittleEndian.PutUint64(buf[:], v)
		if err := sp.Write(pfn, 0, buf[:], nil); err != nil {
			return fmt.Errorf("set-up write of pfn %d: %w", pfn, err)
		}
		model[pfn] = v
	}
	return nil
}

func newPlatform(e *env) *core.Platform {
	p := core.NewPlatform(core.Options{SkipNameCheck: true})
	if e.instrumented() {
		p.HV.Memory.SetMetrics(p.Metrics())
	}
	return p
}

// ---- clone-fanout -------------------------------------------------------

func runCloneFanout(e *env) error {
	p := newPlatform(e)
	rec, space, err := bootGuest(p, guestCfg("parent", 4), guest.FlavorMiniOS)
	if err != nil {
		return err
	}
	seeded := e.distinctPFNs(64, firstHeapPFN, heapEnd(space.Pages()))
	model := make(map[mem.PFN]uint64, len(seeded))
	if err := fill(space, seeded, func(pfn mem.PFN) uint64 { return mix(e.seed, 0, 0, uint64(pfn)) }, model); err != nil {
		return err
	}
	singles, batches := e.scale(3000, 40), e.scale(125, 2)
	kids := make([]core.DomID, 0, singles+8*batches)
	e.primary = make([]int64, 0, singles)
	e.baseline(p)

	spec := core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1}
	e.resume()
	for i := 0; i < singles; i++ {
		kids = append(kids, e.cloneOp(p, spec, true)...)
	}
	e.refVirt = vclock.Duration(e.primary[0])
	spec.Count = 8
	for i := 0; i < batches; i++ {
		kids = append(kids, e.cloneOp(p, spec, false)...)
	}
	e.pause()

	// The parent never writes after set-up, so its bytes at every fork are
	// the model; all children are alive here, the round's peak.
	for _, c := range kids {
		e.expectPages(p, c, e.sample(seeded, 4), model, "child after clone")
		e.expectStoreEntry(p, c)
	}
	e.peak()
	if e.mode == modeProbe {
		e.probeXenstore(p, rec.ID)
		e.probeDevices()
		e.probeMem(p, rec.ID, nil)
		e.probeDomainCreate(p, space.Pages())
	}

	e.resume()
	for _, c := range kids {
		e.destroy(p, c)
	}
	e.pause()
	e.settle()
	e.layerCounts()
	return nil
}

// ---- create-churn -------------------------------------------------------

// churnCheckEvery spaces the cycles whose restored guests are read back;
// each check splits the timed segment, so checking all 1500 would cost more
// than the ops.
const churnCheckEvery = 50

func runCreateChurn(e *env) error {
	p := newPlatform(e)
	residents, cycles := e.scale(1000, 20), e.scale(1500, 10)
	// The first resident boots on the empty machine, as the paper's first
	// instance does: the reference endpoint. The timed boots run beside a
	// thousand guests and cost more.
	first, err := p.Boot(guestCfg("resident-0", 4), e.m)
	if err != nil {
		return fmt.Errorf("set-up boot: %w", err)
	}
	if _, err := guest.Boot(p, first, guest.FlavorMiniOS, e.m); err != nil {
		return fmt.Errorf("set-up guest boot: %w", err)
	}
	e.refVirt = e.m.Elapsed()
	for i := 1; i < residents; i++ {
		if _, _, err := bootGuest(p, guestCfg(fmt.Sprintf("resident-%d", i), 4), guest.FlavorMiniOS); err != nil {
			return err
		}
	}
	// The snapshot every cycle saves: the same seeded pages each time, so
	// one insert in set-up makes every cached restore a scripted hit.
	store := p.NewImageStore(0)
	pages := guestCfg("", 4).Pages()
	seeded := e.distinctPFNs(32, firstHeapPFN, heapEnd(pages))
	model := make(map[mem.PFN]uint64, len(seeded))
	val := func(pfn mem.PFN) uint64 { return mix(e.seed, 1, 0, uint64(pfn)) }
	tmpl, tspace, err := bootGuest(p, guestCfg("template", 4), guest.FlavorMiniOS)
	if err != nil {
		return err
	}
	if err := fill(tspace, seeded, val, model); err != nil {
		return err
	}
	img, err := p.XL.Save(tmpl.ID, nil)
	if err != nil {
		return err
	}
	if err := store.Insert(img, nil); err != nil {
		return err
	}
	if err := p.Destroy(tmpl.ID, nil); err != nil {
		return err
	}
	e.primary = make([]int64, 0, cycles)
	e.baseline(p)

	hits := 0
	e.resume()
	for i := 0; i < cycles; i++ {
		checked := i%churnCheckEvery == 0
		rec := e.boot(p, guestCfg(fmt.Sprintf("churn-%d", i), 4), guest.FlavorMiniOS, true)
		if rec == nil {
			continue
		}
		if dom, derr := p.HV.Domain(rec.ID); derr == nil {
			// The guest's own writes: what makes its snapshot non-trivial.
			_ = fill(dom.Space(), seeded, val, model) // the restored bytes are checked below
		}
		cimg := e.save(p, rec.ID)
		e.destroy(p, rec.ID)
		if cimg == nil {
			continue
		}
		if cold := e.restore(p, cimg, fmt.Sprintf("cold-%d", i)); cold != nil {
			if checked {
				e.pause()
				e.expectPages(p, cold.ID, seeded, model, "cold restore")
				e.expectStoreEntry(p, cold.ID)
				if i == 0 {
					e.peak()
					if e.mode == modeProbe {
						e.probeXenstore(p, cold.ID)
						e.probeDevices()
						e.probeDomainCreate(p, pages)
						e.probeToolstack(p, cold.ID)
					}
				}
				e.resume()
			}
			e.destroy(p, cold.ID)
		}
		warm, hit := e.restoreCached(p, store, cimg, fmt.Sprintf("warm-%d", i))
		if warm == nil {
			continue
		}
		if hit {
			hits++
		} else {
			e.fail("cycle %d: cached restore of a resident image missed", i)
		}
		if checked {
			e.pause()
			e.expectPages(p, warm.ID, seeded, model, "cached restore")
			e.resume()
		}
		e.destroy(p, warm.ID)
	}
	e.pause()
	if st := store.Stats(); int(st.Hits) != hits || st.Misses != 0 {
		e.fail("snapshot cache counted %d hits and %d misses, the script made %d and 0", st.Hits, st.Misses, hits)
	}
	e.settle()
	e.layerCounts()
	e.storeCounts(store)
	return nil
}

// ---- clone-bigmem -------------------------------------------------------

func runCloneBigmem(e *env) error {
	p := newPlatform(e)
	mb := 256
	if e.quick {
		mb = 32
	}
	rec, pspace, err := bootGuest(p, guestCfg("bigmem", mb), guest.FlavorMiniOS)
	if err != nil {
		return err
	}
	pages, end := pspace.Pages(), heapEnd(pspace.Pages())
	model := make(map[mem.PFN]uint64, pages/2)
	dirty := e.distinctPFNs(pages/4, firstHeapPFN, end)
	if err := fill(pspace, dirty, func(pfn mem.PFN) uint64 { return mix(e.seed, 2, 0, uint64(pfn)) }, model); err != nil {
		return err
	}
	iters := e.scale(96, 4)
	e.primary = make([]int64, 0, iters/2)
	e.baseline(p)

	for it := 0; it < iters; it++ {
		spec := core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1, Mode: core.CloneEager}
		if it%2 == 1 {
			spec.Mode = core.CloneLazy
		}
		e.resume()
		kids := e.cloneOp(p, spec, spec.Mode == core.CloneEager)
		e.pause()
		if len(kids) == 0 {
			continue
		}
		child := kids[0]
		cdom, err := p.HV.Domain(child)
		if err != nil {
			e.fail("child %d vanished: %v", child, err)
			continue
		}
		e.expectPages(p, child, e.sample(dirty, 4), model, "child after clone")
		e.expectStoreEntry(p, child)

		cw := e.distinctPFNs(pages/50, firstHeapPFN, end)
		pw := e.distinctPFNs(pages/100, firstHeapPFN, end)
		cval := func(pfn mem.PFN) uint64 { return mix(e.seed, 3, uint64(it), uint64(pfn)) }
		pval := func(pfn mem.PFN) uint64 { return mix(e.seed, 4, uint64(it), uint64(pfn)) }
		atFork := make(map[mem.PFN]uint64, 4)
		probeP := e.sample(pw, 4)
		for _, pfn := range probeP {
			atFork[pfn] = model[pfn]
		}

		e.resume()
		e.writeBurst(cdom.Space(), cw, cval)
		e.writeBurst(pspace, pw, pval)
		if spec.Mode == core.CloneLazy {
			e.waitStreamed(p, child)
		}
		e.pause()
		for _, pfn := range pw {
			model[pfn] = pval(pfn)
		}

		// Each side sees only its own writes.
		wroteChild := func(pfn mem.PFN) bool {
			i := sort.Search(len(cw), func(i int) bool { return cw[i] >= pfn })
			return i < len(cw) && cw[i] == pfn
		}
		for _, pfn := range e.sample(cw, 4) {
			e.expectPages(p, child, []mem.PFN{pfn}, map[mem.PFN]uint64{pfn: cval(pfn)}, "child's own write")
			e.expectPages(p, rec.ID, []mem.PFN{pfn}, model, "parent under a child's write")
		}
		for _, pfn := range probeP {
			want := atFork[pfn]
			if wroteChild(pfn) {
				want = cval(pfn)
			}
			e.expectPages(p, child, []mem.PFN{pfn}, map[mem.PFN]uint64{pfn: want}, "child under a parent's write")
			e.expectPages(p, rec.ID, []mem.PFN{pfn}, model, "parent's own write")
		}
		if it == 0 {
			e.peak()
		}

		e.resume()
		e.destroy(p, child)
		e.pause()
		if it == 0 && e.mode == modeProbe {
			// With no child alive and the parent's last writes in place:
			// the state every clone of the script finds the parent in.
			e.probeMem(p, rec.ID, func() error {
				pw := e.distinctPFNs(pages/100, firstHeapPFN, end)
				return fill(pspace, pw, func(pfn mem.PFN) uint64 { return model[pfn] }, model)
			})
			e.probeDomainCreate(p, pages)
		}
	}
	e.settle()
	e.layerCounts()
	return nil
}

// ---- fuzz-reset ---------------------------------------------------------

// fuzzSessions is how many campaigns a fuzz-reset round runs one after the
// other, each on a seed of its own derived from -seed. One campaign's corpus
// settles early on a mix of inputs that dirties 2.67 to 2.79 pages each, and
// keeps it, so one session's allocations per input differ by 2 % from seed
// to seed however long it runs; sixteen campaigns average that out.
const fuzzSessions = 16

func runFuzzReset(e *env) error {
	per := e.scale(100000, 500) / fuzzSessions
	sessions := make([]*fuzz.Session, fuzzSessions)
	for i := range sessions {
		s, err := fuzz.NewSession(fuzz.Config{Mode: fuzz.ModeUnikraftClone, Seed: uint32(mix(e.seed, 7, uint64(i), 0))})
		if err != nil {
			return fmt.Errorf("fuzz session: %w", err)
		}
		defer s.Close()
		sessions[i] = s
	}
	e.primary = make([]int64, 0, per*fuzzSessions)

	e.resume()
	for _, s := range sessions {
		for i := 0; i < per; i++ {
			e.iterate(s)
		}
	}
	e.pause()

	var dirty, reset float64
	corpus := 0
	for i, s := range sessions {
		st := s.Stats()
		if st.Iterations != per || st.Corpus < 1 {
			e.fail("session %d reports %d iterations and %d corpus entries after %d inputs", i, st.Iterations, st.Corpus, per)
		}
		dirty += st.AvgDirtyPages / fuzzSessions
		reset += float64(st.AvgResetTime) / 1e3 / fuzzSessions
		corpus += st.Corpus
	}
	e.layer["fuzz.dirty_pages_per_iter"] = dirty
	e.layer["fuzz.reset_virt_us"] = reset
	e.layer["fuzz.corpus_size"] = float64(corpus)
	e.liveHeap()

	// A session keeps its platform private, so the pool footprint, the
	// leak check and the layer probes use a twin built the way
	// fuzz.NewSession builds its own: a 4 MB Unikraft guest cloned once
	// from Dom0, three pages dirtied as one input does.
	return e.fuzzTwin()
}

// ---- remote-fanout ------------------------------------------------------

// remoteFlushEvery spaces the requests that find the receivers' snapshot
// caches empty: with 24 requests, 3 are cold and 21 dedup-warm.
const remoteFlushEvery = 8

func runRemoteFanout(e *env) error {
	const nHosts = 4
	c := cluster.New(cluster.Options{Hosts: nHosts, LinkWidth: 2,
		Platform: core.Options{SkipNameCheck: true}})
	hosts := make([]*core.Platform, nHosts)
	stores := make([]*toolstack.ImageStore, nHosts)
	for i := range hosts {
		hosts[i], stores[i] = c.Host(i).P, c.Host(i).Store
		if e.instrumented() {
			hosts[i].HV.Memory.SetMetrics(hosts[i].Metrics())
		}
	}
	mb := 16
	if e.quick {
		mb = 8
	}
	h0 := hosts[0]
	rec, pspace, err := bootGuest(h0, guestCfg("parent", mb), guest.FlavorMiniOS)
	if err != nil {
		return err
	}
	pages, end := pspace.Pages(), heapEnd(pspace.Pages())
	model := make(map[mem.PFN]uint64, pages)
	written := e.distinctPFNs(pages/2, firstHeapPFN, end)
	if err := fill(pspace, written, func(pfn mem.PFN) uint64 { return mix(e.seed, 5, 0, uint64(pfn)) }, model); err != nil {
		return err
	}
	reqs := e.scale(24, 3)
	e.primary = make([]int64, 0, reqs)
	e.baseline(hosts...)

	spec := core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: nHosts - 1, Placement: cluster.Spread{}}
	placed := 0
	for i := 0; i < reqs; i++ {
		if i%remoteFlushEvery == 0 {
			for _, st := range stores[1:] {
				st.Flush()
			}
		}
		touch := e.distinctPFNs(pages/100, firstHeapPFN, end)
		tval := func(pfn mem.PFN) uint64 { return mix(e.seed, 6, uint64(i), uint64(pfn)) }
		e.resume()
		if i > 0 {
			e.writeBurst(pspace, touch, tval)
		}
		res := e.remoteClone(h0, spec)
		e.pause()
		if i > 0 {
			for _, pfn := range touch {
				model[pfn] = tval(pfn)
			}
			written = append(written, touch...)
		}

		// A remote child is what a local clone of the parent would be: the
		// parent's bytes at the request.
		for _, r := range res {
			if r.Host == 0 || r.Host >= nHosts {
				e.fail("request %d: Spread put a child on host %d", i, r.Host)
				continue
			}
			for _, child := range r.Children {
				placed++
				check := append(e.sample(written, 8), touch...)
				e.expectPages(hosts[r.Host], child, check, model, "remote child")
				e.expectStoreEntry(hosts[r.Host], child)
				if placed == 1 {
					e.expectSameBytes(pspace, hosts[r.Host], child, end)
				}
			}
		}
		if i == 0 {
			e.peak()
			if e.mode == modeProbe {
				e.probeNetsim()
				e.probeToolstack(h0, rec.ID)
				e.probeDomainCreate(h0, pages)
			}
		}

		e.resume()
		for _, r := range res {
			if r.Host < nHosts {
				for _, child := range r.Children {
					e.destroy(hosts[r.Host], child)
				}
			}
		}
		e.pause()
	}

	// Every request ships a changed parent, so its image is new to every
	// receiver: the script makes one miss per placed child and no hit.
	e.storeCounts(stores[1:]...)
	var hits, misses int64
	for _, st := range stores[1:] {
		s := st.Stats()
		hits, misses = hits+s.Hits, misses+s.Misses
	}
	if hits != 0 || misses != int64(placed) {
		e.fail("receiver caches counted %d hits and %d misses, the script made 0 and %d", hits, misses, placed)
	}
	for _, st := range stores {
		st.Flush()
	}
	e.settle()
	e.layerCounts()

	cm := c.Metrics()
	pri := int64(len(e.primary))
	xfer, dedup := cm.Counter("cluster.xfer_pages").Value(), cm.Counter("cluster.dedup_pages").Value()
	warm, cold := cm.Counter("cluster.materialize_warm").Value(), cm.Counter("cluster.materialize_cold").Value()
	e.layer["cluster.xfer_pages_per_op"] = ratio(xfer, pri)
	e.layer["cluster.dedup_ratio"] = ratio(dedup, dedup+xfer)
	e.layer["cluster.materialize_warm_ratio"] = ratio(warm, warm+cold)
	var sent, deduped int64
	for h := 1; h < nHosts; h++ {
		link, err := c.Fabric().Link(0, h)
		if err != nil {
			return err
		}
		_, s, d := link.Stats()
		sent, deduped = sent+s, deduped+d
	}
	e.layer["netsim.link_pages_sent_per_op"] = ratio(sent, pri)
	e.layer["netsim.link_pages_deduped_per_op"] = ratio(deduped, pri)
	return nil
}

// expectSameBytes compares every heap page of a child with the parent's,
// whole pages.
func (e *env) expectSameBytes(parent *mem.Space, p *core.Platform, child core.DomID, end int) {
	dom, err := p.HV.Domain(child)
	if err != nil {
		e.fail("remote child %d: %v", child, err)
		return
	}
	a, b := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for pfn := mem.PFN(0); int(pfn) < end; pfn++ {
		if err := parent.Read(pfn, 0, a); err != nil {
			e.fail("parent pfn %d: %v", pfn, err)
			return
		}
		if err := dom.Space().Read(pfn, 0, b); err != nil || !bytes.Equal(a, b) {
			e.fail("remote child %d differs from its parent at pfn %d (err %v)", child, pfn, err)
			return
		}
	}
}
