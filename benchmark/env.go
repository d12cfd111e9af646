package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"nephele/internal/core"
	"nephele/internal/fuzz"
	"nephele/internal/guest"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// mode is how one round drives the program.
type mode int

const (
	// modePlain is the end-to-end pass: the public core/cluster/fuzz calls,
	// no spans, no opt-in instrumentation.
	modePlain mode = iota
	// modeSpanned makes the same calls with one benchmark span around each,
	// which times the core call itself.
	modeSpanned
	// modeStaged replaces each core call by the calls core makes (HV.Clone,
	// Cloned.Serve, XL.Create, ...) with a span around every one, which
	// splits the call between the layers beneath it.
	modeStaged
	// modeProbe runs the plain script to its peak-population checkpoint and
	// there times direct calls into each layer's public functions against
	// the live state. A probe round feeds only the probe metrics: its
	// probes disturb the counters the other rounds report.
	modeProbe
	nModes
)

var modeNames = [nModes]string{"plain", "spanned", "staged", "probe"}

func (m mode) String() string { return modeNames[m] }

// traced reports whether the round records spans.
func (m mode) traced() bool { return m == modeSpanned || m == modeStaged }

// opKind classifies the counted operations of the scripts.
type opKind int

const (
	opClone opKind = iota
	opBoot
	opDestroy
	opSave
	opRestore
	opRestoreCached
	opWrite
	opWaitStreamed
	opIterate
	opRemoteClone
	nKinds
)

var kindNames = [nKinds]string{"clone", "boot", "destroy", "save", "restore",
	"restore-cached", "guest-write", "wait-streamed", "fuzz-iterate", "remote-clone"}

// kindAcc totals one kind of op over a round.
type kindAcc struct {
	N    int
	Virt vclock.Duration
}

// env is the state of one round: the seeded inputs, the op accounting on
// both clocks, the span recorder of a traced round and whatever the round
// learns about the layers.
type env struct {
	w     *workload
	seed  int64
	quick bool
	mode  mode
	rng   *rand.Rand
	m     *vclock.Meter // reset at the start of every counted op
	rec   *recorder

	start      time.Time
	setup      time.Duration
	segStart   time.Time
	segCPU     time.Duration
	segMallocs uint64
	segBytes   uint64
	wall       time.Duration
	cpu        time.Duration
	mallocs    uint64
	bytes      uint64

	ops     int
	failed  int
	fails   []string
	virt    vclock.Duration
	kinds   [nKinds]kindAcc
	primary []int64 // virtual ns of every primary op

	hosts    []*core.Platform
	base     []hostBase
	baseCnt  map[string]int64
	heapBase uint64 // live heap when the round began, right after a collection
	liveMB   float64
	simKB    float64
	refVirt  vclock.Duration // the simulated endpoint vclock.ref_err_pct checks
	layer    map[string]float64
	probed   map[string]float64 // what a probe round's probes measured
	pattern  uint64             // digest of every page number the seed drew
}

// hostBase is one platform's post-set-up footprint, the state every round
// must return to.
type hostBase struct {
	free    int
	guests  int // Xenstore nodes in the guests' own subtrees
	backend int // per-guest nodes under Dom0's backend directory
}

// Where the store keeps per-guest state: a subtree per domain, and for each
// device a directory backendDir/<kind>/<domid> owned by Dom0's backend.
const (
	domainDir  = "/local/domain"
	dom0Dir    = "/local/domain/0"
	backendDir = "/local/domain/0/backend"
)

// storeNodes counts a platform's per-guest Xenstore nodes in one pass: those
// in guests' own subtrees and those in Dom0's backend directories for them.
// Walk is the store's uncounted tooling read; a store with no domain yet
// holds none.
func storeNodes(p *core.Platform) (guests, backend int) {
	_ = p.Store.Walk(domainDir, func(path, _ string) {
		switch {
		case path == domainDir:
		case path != dom0Dir && !strings.HasPrefix(path, dom0Dir+"/"):
			guests++
		case strings.HasPrefix(path, backendDir+"/") && strings.Count(path[len(backendDir):], "/") >= 2:
			backend++
		}
	})
	return guests, backend
}

func newEnv(w *workload, seed int64, quick bool, md mode) *env {
	e := &env{
		w: w, seed: seed, quick: quick, mode: md,
		rng:    rand.New(rand.NewSource(seed)),
		m:      vclock.NewMeter(nil),
		layer:  make(map[string]float64),
		probed: make(map[string]float64),
	}
	e.heapBase = heapAlloc()
	e.start = time.Now()
	if md.traced() {
		e.rec = newRecorder(e.start)
	}
	return e
}

// scale shrinks an op count for -quick (1/20, at least floor).
func (e *env) scale(n, floor int) int {
	if !e.quick {
		return n
	}
	return max(n/20, floor)
}

// instrumented reports whether the round may switch on the program's opt-in
// hot-path counters (Memory.SetMetrics); the end-to-end pass never does.
func (e *env) instrumented() bool { return e.mode != modePlain }

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resume opens a timed segment. The allocator statistics are read outside
// the CPU reading, and that outside the wall reading, so the cost of
// measuring lands in none of them.
func (e *env) resume() {
	if e.setup == 0 {
		e.setup = time.Since(e.start)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.segMallocs, e.segBytes = ms.Mallocs, ms.TotalAlloc
	e.segCPU = cpuTime()
	e.segStart = time.Now()
}

// pause closes the timed segment; checks and checkpoints run while paused.
func (e *env) pause() {
	wall := time.Since(e.segStart)
	cpu := cpuTime()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.wall += wall
	e.cpu += cpu - e.segCPU
	e.mallocs += ms.Mallocs - e.segMallocs
	e.bytes += ms.TotalAlloc - e.segBytes
}

func (e *env) begin(name string) int32 { return e.rec.begin(name, e.ops, e.virt, e.m) }
func (e *env) end(id int32)            { e.rec.end(id, e.virt, e.m) }

// done books the op that just ran on e.m.
func (e *env) done(k opKind, primary bool, err error) {
	d := e.m.Elapsed()
	e.ops++
	e.virt += d
	e.kinds[k].N++
	e.kinds[k].Virt += d
	if primary {
		e.primary = append(e.primary, int64(d))
	}
	if err != nil {
		e.fail("%s: %v", kindNames[k], err)
	}
}

// fail counts one op as failed (an error or a missed output check) and
// keeps the first few messages for the report.
func (e *env) fail(format string, args ...any) {
	e.failed++
	if len(e.fails) < 8 {
		e.fails = append(e.fails, fmt.Sprintf(format, args...))
	}
}

// ---- the counted operations -------------------------------------------

// cloneOp is Platform.CloneOp for one local spec, or its staged form: the
// first stage (HV.Clone), the daemon's second stage (Cloned.Serve) and the
// completion wait, which is all core.cloneOne does around them.
func (e *env) cloneOp(p *core.Platform, spec core.CloneSpec, primary bool) []core.DomID {
	e.m.Reset()
	ctx := obs.Ctx(e.m)
	if e.mode != modeStaged {
		sp := e.begin("core.clone")
		res, err := p.CloneOp(ctx, spec)
		e.end(sp)
		var kids []core.DomID
		if len(res) > 0 {
			kids = res[0].Children
		}
		if err == nil && len(kids) != spec.Count {
			err = fmt.Errorf("%d of %d children", len(kids), spec.Count)
		}
		e.done(opClone, primary, err)
		return kids
	}
	sp := e.begin("core.clone.staged")
	h := e.begin("hv.clone")
	r := p.HV.Clone(hv.CloneRequest{Caller: spec.Caller, Target: spec.Parent,
		N: spec.Count, CopyRing: true, Mode: spec.Mode, Ctx: ctx})
	e.end(h)
	if r.Err != nil {
		e.end(sp)
		e.done(opClone, primary, r.Err)
		return nil
	}
	s := e.begin("cloned.serve")
	_, err := p.Cloned.Serve(ctx)
	e.end(s)
	<-r.Done
	e.end(sp)
	kids := make([]core.DomID, 0, len(r.Children))
	for _, k := range r.Children {
		if out, ok := p.HV.CloneOutcome(k); !ok || out != hv.OutcomeAborted {
			kids = append(kids, k)
		}
	}
	if err == nil && len(kids) != spec.Count {
		err = fmt.Errorf("%d of %d children", len(kids), spec.Count)
	}
	e.done(opClone, primary, err)
	return kids
}

// boot is Platform.Boot plus the guest's own boot — one instantiation as
// Fig. 4 measures it. Staged, Platform.Boot is XL.Create.
func (e *env) boot(p *core.Platform, cfg toolstack.DomainConfig, flavor guest.Flavor, primary bool) *toolstack.Record {
	e.m.Reset()
	var rec *toolstack.Record
	var err error
	var sp int32
	if e.mode == modeStaged {
		sp = e.begin("core.boot.staged")
		c := e.begin("toolstack.create")
		rec, err = p.XL.Create(cfg, e.m)
		e.end(c)
	} else {
		sp = e.begin("core.boot")
		rec, err = p.Boot(cfg, e.m)
	}
	if err == nil {
		g := e.begin("guest.boot")
		_, err = guest.Boot(p, rec, flavor, e.m)
		e.end(g)
	}
	e.end(sp)
	e.done(opBoot, primary, err)
	return rec
}

// destroy is Platform.Destroy; staged, XL.Destroy.
func (e *env) destroy(p *core.Platform, id core.DomID) {
	e.m.Reset()
	var err error
	if e.mode == modeStaged {
		sp := e.begin("toolstack.destroy")
		err = p.XL.Destroy(id, e.m)
		e.end(sp)
	} else {
		sp := e.begin("core.destroy")
		err = p.Destroy(id, e.m)
		e.end(sp)
	}
	e.done(opDestroy, false, err)
}

func (e *env) save(p *core.Platform, id core.DomID) *toolstack.Image {
	e.m.Reset()
	sp := e.begin("toolstack.save")
	img, err := p.XL.Save(id, e.m)
	e.end(sp)
	e.done(opSave, false, err)
	return img
}

func (e *env) restore(p *core.Platform, img *toolstack.Image, name string) *toolstack.Record {
	e.m.Reset()
	sp := e.begin("toolstack.restore")
	rec, err := p.XL.Restore(img, name, e.m)
	e.end(sp)
	e.done(opRestore, false, err)
	return rec
}

// The spans the program records itself, by the layer-qualified names of the
// catalogue: the ones directly under a cached restore and under a remote
// clone. (A remote clone's materialize nests an image-hash of its own; it is
// left inside materialize, where its time belongs.)
var (
	restoreSpans = map[string]string{"image-hash": "toolstack.image_hash"}
	clusterSpans = map[string]string{
		"snapshot":    "cluster.snapshot",
		"xfer":        "cluster.xfer",
		"materialize": "cluster.materialize",
	}
)

// tracedCtx is the op's context, carrying a fresh program-side trace in a
// traced round so the spans the program already records can be read back.
func (e *env) tracedCtx() (obs.OpCtx, *obs.Trace) {
	ctx := obs.Ctx(e.m)
	if e.rec == nil {
		return ctx, nil
	}
	tr := obs.NewTrace()
	return ctx.WithTrace(tr), tr
}

// restoreCached restores through the snapshot cache and reports whether the
// cache served it.
func (e *env) restoreCached(p *core.Platform, st *toolstack.ImageStore, img *toolstack.Image, name string) (*toolstack.Record, bool) {
	e.m.Reset()
	ctx, tr := e.tracedCtx()
	sp := e.begin("toolstack.restore_cached")
	rec, hit, err := p.XL.RestoreCachedOp(ctx, st, img, name)
	e.rec.adopt(tr, restoreSpans, e.ops, e.virt)
	e.end(sp)
	e.done(opRestoreCached, false, err)
	return rec, hit
}

// writeBurst is a guest writing one 8-byte value into each of pfns — every
// one a COW fault when the page is family-shared. Staged, each Space.Write
// is timed on its own.
func (e *env) writeBurst(sp *mem.Space, pfns []mem.PFN, val func(mem.PFN) uint64) {
	e.m.Reset()
	var buf [8]byte
	var err error
	burst := e.begin("guest.write")
	for _, pfn := range pfns {
		binary.LittleEndian.PutUint64(buf[:], val(pfn))
		var f int32
		if e.mode == modeStaged {
			f = e.begin("mem.cow_fault")
		}
		werr := sp.Write(pfn, 0, buf[:], e.m)
		if e.mode == modeStaged {
			e.end(f)
		}
		if werr != nil && err == nil {
			err = werr
		}
	}
	e.end(burst)
	e.done(opWrite, false, err)
}

func (e *env) waitStreamed(p *core.Platform, id core.DomID) {
	e.m.Reset()
	sp := e.begin("mem.wait_streamed")
	err := p.WaitStreamed(obs.Ctx(e.m), id)
	e.end(sp)
	e.done(opWaitStreamed, false, err)
}

func (e *env) iterate(s *fuzz.Session) {
	e.m.Reset()
	sp := e.begin("fuzz.iterate")
	_, err := s.Iterate(e.m)
	e.end(sp)
	e.done(opIterate, true, err)
}

// remoteClone is a placed Platform.CloneOp. cluster keeps its pipeline
// private, so a traced round reads the snapshot/xfer/materialize spans the
// program records itself instead of staging the call.
func (e *env) remoteClone(p *core.Platform, spec core.CloneSpec) []*core.CloneResult {
	e.m.Reset()
	ctx, tr := e.tracedCtx()
	sp := e.begin("cluster.remote_clone")
	res, err := p.CloneOp(ctx, spec)
	e.rec.adopt(tr, clusterSpans, e.ops, e.virt)
	e.end(sp)
	n := 0
	for _, r := range res {
		n += len(r.Children)
	}
	if err == nil && n != spec.Count {
		err = fmt.Errorf("%d of %d children", n, spec.Count)
	}
	e.done(opRemoteClone, true, err)
	return res
}

// ---- checkpoints -------------------------------------------------------

// baseline records the post-set-up state of the round's platforms: the
// footprint the script must return to and the counter values its deltas
// are taken from.
func (e *env) baseline(hosts ...*core.Platform) {
	e.hosts = hosts
	e.base = e.base[:0]
	for _, p := range hosts {
		guests, backend := storeNodes(p)
		e.base = append(e.base, hostBase{free: p.HV.Memory.FreeFrames(), guests: guests, backend: backend})
	}
	e.baseCnt = rawCounts(hosts)
}

// peak is the round's peak-population checkpoint: the host's live heap and
// the simulated footprint.
func (e *env) peak() {
	e.liveHeap()
	e.footprint()
}

// liveHeap reads the host heap the round holds: what survives a forced
// collection now, less what was live when the round began (the harness's own
// results of earlier rounds).
func (e *env) liveHeap() {
	runtime.GC()
	e.liveMB = (float64(heapAlloc()) - float64(e.heapBase)) / (1 << 20)
}

func heapAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// footprint reads the simulated pool bytes per live instance (Fig. 5's
// footprint, counted from the fresh platforms) and the layers' high-water
// counts.
func (e *env) footprint() {
	used, instances, vifs, slaves, shared := 0, 0, 0, 0, 0
	for _, p := range e.hosts {
		used += p.HV.Memory.TotalFrames() - p.HV.Memory.FreeFrames()
		instances += p.XL.Count()
		vifs += p.Backends.Net.Count()
		slaves += p.Bond.Slaves()
		shared += p.HV.Memory.SharedFrames()
	}
	if instances > 0 {
		e.simKB = float64(used) * mem.PageSize / 1024 / float64(instances)
	}
	if len(e.hosts) > 0 {
		e.layer["xenstore.nodes_peak"] = float64(e.hosts[0].Store.NodeCount())
	}
	e.layer["devices.vifs_peak"] = float64(vifs)
	e.layer["netsim.bond_slaves_peak"] = float64(slaves)
	e.layer["mem.shared_frames_peak"] = float64(shared)
}

// settle is the end-of-script check: every host's free frames and the
// Xenstore nodes of its guests' subtrees are back at their post-set-up
// values. Dom0's backend directories are held apart: XL.Destroy removes a
// guest's own subtree but leaves its backend entries behind, on every
// workload, so counting them would fail every round. What is left there is
// reported as a metric instead.
func (e *env) settle() {
	leaked := 0
	for i, p := range e.hosts {
		if got := p.HV.Memory.FreeFrames(); got != e.base[i].free {
			e.fail("host %d: %d free frames at the end of the round, %d at its start", i, got, e.base[i].free)
		}
		guests, backend := storeNodes(p)
		if guests != e.base[i].guests {
			e.fail("host %d: %d xenstore nodes in guest subtrees at the end of the round, %d at its start", i, guests, e.base[i].guests)
		}
		leaked += backend - e.base[i].backend
	}
	e.layer["xenstore.leaked_nodes_per_destroy"] = ratio(int64(leaked), int64(e.kinds[opDestroy].N))
}

// ---- output checks -----------------------------------------------------

// pageVal reads the 8-byte value at the start of a guest page.
func pageVal(sp *mem.Space, pfn mem.PFN) (uint64, error) {
	var buf [8]byte
	if err := sp.Read(pfn, 0, buf[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// expectPages checks that each of pfns reads want[pfn] in dom's space.
func (e *env) expectPages(p *core.Platform, id core.DomID, pfns []mem.PFN, want map[mem.PFN]uint64, what string) {
	dom, err := p.HV.Domain(id)
	if err != nil {
		e.fail("%s: domain %d: %v", what, id, err)
		return
	}
	for _, pfn := range pfns {
		got, err := pageVal(dom.Space(), pfn)
		if err != nil || got != want[pfn] {
			e.fail("%s: domain %d pfn %d reads %#x (err %v), want %#x", what, id, pfn, got, err, want[pfn])
			return
		}
	}
}

// expectStoreEntry checks that a domain's Xenstore subtree exists. Walk is
// the store's uncounted tooling read, so the check leaves the request
// counters alone.
func (e *env) expectStoreEntry(p *core.Platform, id core.DomID) {
	if err := p.Store.Walk(fmt.Sprintf("/local/domain/%d/name", id), func(string, string) {}); err != nil {
		e.fail("domain %d has no xenstore subtree: %v", id, err)
	}
}

// sample picks n of pfns with the round's seeded generator.
func (e *env) sample(pfns []mem.PFN, n int) []mem.PFN {
	out := make([]mem.PFN, 0, n)
	for i := 0; i < n && len(pfns) > 0; i++ {
		out = append(out, pfns[e.rng.Intn(len(pfns))])
	}
	return out
}

// distinctPFNs draws n distinct page numbers from [lo, hi) with the seeded
// generator, ascending.
func (e *env) distinctPFNs(n, lo, hi int) []mem.PFN {
	if n > hi-lo {
		n = hi - lo
	}
	seen := make(map[int]struct{}, n)
	out := make([]mem.PFN, 0, n)
	for len(out) < n {
		v := lo + e.rng.Intn(hi-lo)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		e.pattern = (e.pattern ^ uint64(v)) * 1099511628211
		out = append(out, mem.PFN(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
