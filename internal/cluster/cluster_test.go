package cluster

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"nephele/internal/core"
	"nephele/internal/fault"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

func testCluster(hosts int) *Cluster {
	return New(Options{
		Hosts:     hosts,
		LinkWidth: 2,
		Platform: core.Options{
			MemoryBytes:   1 << 30,
			SkipNameCheck: true,
		},
	})
}

func guestConfig(name string) toolstack.DomainConfig {
	return toolstack.DomainConfig{
		Name:      name,
		MemoryMB:  4,
		VCPUs:     1,
		MaxClones: 1000,
		Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
}

// bootParent boots a guest on h and writes a recognizable pattern into a
// few spread-out pages, leaving plenty of zero runs between them.
func bootParent(t testing.TB, h *Host, name string) *toolstack.Record {
	t.Helper()
	rec, err := h.P.Boot(guestConfig(name), nil)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := h.P.HV.Domain(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, pfn := range []mem.PFN{3, 7, 100, 512} {
		if err := dom.Space().Write(pfn, 0, []byte("state@"+name), nil); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

// spanPaths returns, for every span of trace named name, the names from
// its top-level ancestor down to it, joined by slashes.
func spanPaths(trace *obs.Trace, name string) []string {
	recs := trace.Spans()
	var out []string
	for _, r := range recs {
		if r.Name != name {
			continue
		}
		path := r.Name
		for p := r.Parent; p > 0; p = recs[p-1].Parent {
			path = recs[p-1].Name + "/" + path
		}
		out = append(out, path)
	}
	return out
}

// readState reads the guest-observable pattern back from one page.
func readState(t testing.TB, p *core.Platform, id core.DomID, pfn mem.PFN, n int) string {
	t.Helper()
	dom, err := p.HV.Domain(id)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, n)
	dom.Space().Read(pfn, 0, buf)
	return string(buf)
}

// fixed is a test placement that returns a canned assignment.
type fixed struct{ at []int }

func (fixed) Name() string { return "fixed" }
func (f fixed) Place(n int, _ []int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = f.at[i%len(f.at)]
	}
	return out
}

func TestRemoteCloneShipsStateAcrossHosts(t *testing.T) {
	c := testCluster(3)
	h0 := c.Host(0)
	rec := bootParent(t, h0, "web")
	want := "state@web"

	results, err := h0.P.CloneOp(obs.OpCtx{}, core.CloneSpec{
		Caller: rec.ID, Parent: rec.ID, Count: 3,
		Placement: fixed{at: []int{0, 1, 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d host groups, want 3", len(results))
	}
	// Parent-local group first, then remote groups in ascending host order.
	wantHosts := []int{0, 1, 2}
	for i, res := range results {
		if res.Host != wantHosts[i] {
			t.Fatalf("group %d on host %d, want %d", i, res.Host, wantHosts[i])
		}
		if len(res.Children) != 1 {
			t.Fatalf("group %d has %d children", i, len(res.Children))
		}
		if res.Total <= 0 {
			t.Fatalf("group %d Total = %v", i, res.Total)
		}
		got := readState(t, c.Host(res.Host).P, res.Children[0], 7, len(want))
		if got != want {
			t.Fatalf("child on host %d reads %q, want %q", res.Host, got, want)
		}
	}
	// The local group moved no bytes; the remote groups did.
	if results[0].TransferBytes != 0 {
		t.Fatalf("local group TransferBytes = %d", results[0].TransferBytes)
	}
	for _, res := range results[1:] {
		if res.TransferBytes <= 0 {
			t.Fatalf("remote group on host %d TransferBytes = %d", res.Host, res.TransferBytes)
		}
	}
	// The parent keeps running and keeps its state.
	if got := readState(t, h0.P, rec.ID, 7, len(want)); got != want {
		t.Fatalf("parent state after remote clone = %q", got)
	}
	// Link counters moved on the used links only.
	l01, _ := c.Fabric().Link(0, 1)
	if tr, sent, _ := l01.Stats(); tr != 1 || sent <= 0 {
		t.Fatalf("link 0-1 stats = %d transfers, %d pages", tr, sent)
	}
	l12, _ := c.Fabric().Link(1, 2)
	if tr, _, _ := l12.Stats(); tr != 0 {
		t.Fatalf("unused link 1-2 saw %d transfers", tr)
	}
	// Vector clocks: the sender only ever ticks its own component; each
	// receiver absorbed the sender's vector as of its transfer and then
	// ticked its own.
	src := h0.VC.Snapshot()
	if src[0] <= 0 || src[1] != 0 || src[2] != 0 {
		t.Fatalf("sender vector = %v", src)
	}
	for _, dst := range []int{1, 2} {
		dv := c.Host(dst).VC.Snapshot()
		if dv[dst] <= 0 {
			t.Fatalf("host %d never ticked its own component: %v", dst, dv)
		}
		if dv[0] <= 0 || dv[0] > src[0] {
			t.Fatalf("host %d absorbed sender component %v, sender at %v", dst, dv[0], src[0])
		}
	}
	// Host 2 received the sender's final vector, so the sender's own
	// vector happened-before it; host 1 heard from the sender before its
	// last tick, so the two are concurrent.
	if got := vclock.Compare(src, c.Host(2).VC.Snapshot()); got != vclock.Before {
		t.Fatalf("Compare(sender, host 2) = %v, want Before", got)
	}
	if got := vclock.Compare(src, c.Host(1).VC.Snapshot()); got != vclock.Concurrent {
		t.Fatalf("Compare(sender, host 1) = %v, want Concurrent", got)
	}
	// The two receivers never exchanged anything: concurrent.
	if got := vclock.Compare(c.Host(1).VC.Snapshot(), c.Host(2).VC.Snapshot()); got != vclock.Concurrent {
		t.Fatalf("Compare(host1, host2) = %v, want Concurrent", got)
	}
	if n := c.Metrics().Counter("cluster.remote_clones").Value(); n != 2 {
		t.Fatalf("cluster.remote_clones = %d, want 2", n)
	}
	if n := c.Metrics().Counter("cluster.local_clones").Value(); n != 1 {
		t.Fatalf("cluster.local_clones = %d, want 1", n)
	}
}

// TestRemoteCloneDedupWarm clones one parent to the same peer twice: the
// second transfer is header-only and restores from the receiver's cache,
// and both traces reach the child's domain-create.
func TestRemoteCloneDedupWarm(t *testing.T) {
	c := testCluster(2)
	h0 := c.Host(0)
	rec := bootParent(t, h0, "warm")

	coldTrace, warmTrace := obs.NewTrace(), obs.NewTrace()
	res1, err := h0.P.CloneOp(obs.Ctx(h0.P.NewMeter()).WithTrace(coldTrace), core.CloneSpec{
		Caller: rec.ID, Parent: rec.ID, Count: 1, Placement: fixed{at: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cold := res1[0].Total

	res2, err := h0.P.CloneOp(obs.Ctx(h0.P.NewMeter()).WithTrace(warmTrace), core.CloneSpec{
		Caller: rec.ID, Parent: rec.ID, Count: 1, Placement: fixed{at: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	warm := res2[0].Total

	// Each child's domain is created inside the operation's trace: the
	// cold receiver's cache misses and restores under materialize, the warm
	// one's hits and creates it under restore-cached.
	for _, c := range []struct {
		trace *obs.Trace
		want  string
	}{
		{coldTrace, "remote-clone/materialize/domain-create"},
		{warmTrace, "remote-clone/materialize/restore-cached/domain-create"},
	} {
		if got := spanPaths(c.trace, "domain-create"); !slices.Equal(got, []string{c.want}) {
			t.Errorf("domain-create spans at %q, want [%s]", got, c.want)
		}
	}

	// The receiver's cache held every data chunk after the first
	// transfer, so the second ships headers only and restores by
	// COW-adopting cache frames.
	if res2[0].TransferBytes != 0 {
		t.Fatalf("warm transfer moved %d bytes, want 0", res2[0].TransferBytes)
	}
	if warm >= cold {
		t.Fatalf("dedup-warm remote clone (%v) not cheaper than cold (%v)", warm, cold)
	}
	_, sent, dedup := func() (int64, int64, int64) {
		l, _ := c.Fabric().Link(0, 1)
		return l.Stats()
	}()
	if dedup <= 0 || sent <= 0 {
		t.Fatalf("link stats sent=%d dedup=%d", sent, dedup)
	}
	if n := c.Metrics().Counter("cluster.materialize_cold").Value(); n != 1 {
		t.Fatalf("materialize_cold = %d, want 1", n)
	}
	if n := c.Metrics().Counter("cluster.materialize_warm").Value(); n != 1 {
		t.Fatalf("materialize_warm = %d, want 1", n)
	}
}

// TestDifferentialLocalRemoteClone is the equivalence harness: cloning a
// parent locally and cloning it to a peer host must yield children with
// the same guest-observable state, down to a byte-identical memory
// snapshot.
func TestDifferentialLocalRemoteClone(t *testing.T) {
	c := testCluster(2)
	h0, h1 := c.Host(0), c.Host(1)
	rec := bootParent(t, h0, "diff")

	local, err := h0.P.CloneOp(obs.OpCtx{}, core.CloneSpec{
		Caller: rec.ID, Parent: rec.ID, Count: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	remote, err := h0.P.CloneOp(obs.OpCtx{}, core.CloneSpec{
		Caller: rec.ID, Parent: rec.ID, Count: 1, Placement: fixed{at: []int{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	lkid := local[0].Children[0]
	rkid := remote[0].Children[0]

	// Same guest-observable state on every written page.
	want := "state@diff"
	for _, pfn := range []mem.PFN{3, 7, 100, 512} {
		lgot := readState(t, h0.P, lkid, pfn, len(want))
		rgot := readState(t, h1.P, rkid, pfn, len(want))
		if lgot != want || rgot != want {
			t.Fatalf("pfn %d: local %q remote %q, want %q", pfn, lgot, rgot, want)
		}
	}

	// Byte-identical memory: every guest page of the two children.
	ldom, err := h0.P.HV.Domain(lkid)
	if err != nil {
		t.Fatal(err)
	}
	rdom, err := h1.P.HV.Domain(rkid)
	if err != nil {
		t.Fatal(err)
	}
	lsp, rsp := ldom.Space(), rdom.Space()
	if lsp.Pages() != rsp.Pages() {
		t.Fatalf("local child has %d pages, remote %d", lsp.Pages(), rsp.Pages())
	}
	lpage, rpage := make([]byte, mem.PageSize), make([]byte, mem.PageSize)
	for pfn := mem.PFN(0); int(pfn) < lsp.Pages(); pfn++ {
		if err := lsp.Read(pfn, 0, lpage); err != nil {
			t.Fatal(err)
		}
		if err := rsp.Read(pfn, 0, rpage); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lpage, rpage) {
			t.Fatalf("pfn %d differs between the local and the remote child", pfn)
		}
	}

	// Identical snapshots: the same run geometry, content hashes and key.
	// The children carry different generated names; normalize the config
	// so only memory counts.
	limg, err := h0.P.XL.Save(lkid, nil)
	if err != nil {
		t.Fatal(err)
	}
	rimg, err := h1.P.XL.Save(rkid, nil)
	if err != nil {
		t.Fatal(err)
	}
	limg.Config = rec.Config
	rimg.Config = rec.Config
	if !reflect.DeepEqual(limg.RunInfos(), rimg.RunInfos()) {
		t.Fatalf("local and remote child snapshots differ in their runs:\n%+v\n%+v", limg.RunInfos(), rimg.RunInfos())
	}
	if limg.CacheKey() != rimg.CacheKey() {
		t.Fatalf("local and remote child snapshots hash to %#x and %#x", limg.CacheKey(), rimg.CacheKey())
	}
}

// TestClusterFaultMatrix iterates every cluster fault point
// (fault.ClusterPoints) and proves the documented rollback: an injected
// failure yields an error, no surviving child on the receiver, no
// vector-clock movement, and — for the xfer point — untouched link
// counters and receiver cache. A subsequent un-injected clone succeeds.
func TestClusterFaultMatrix(t *testing.T) {
	for _, point := range fault.ClusterPoints() {
		t.Run(point, func(t *testing.T) {
			c := testCluster(2)
			h0, h1 := c.Host(0), c.Host(1)
			rec := bootParent(t, h0, "faulty")

			reg := fault.NewRegistry()
			reg.Inject(point, fault.FailOnce(), fault.Fatal)
			c.SetFaults(reg)

			spec := core.CloneSpec{
				Caller: rec.ID, Parent: rec.ID, Count: 2,
				Placement: fixed{at: []int{1}},
			}
			res, err := h0.P.CloneOp(obs.OpCtx{}, spec)
			if err == nil {
				t.Fatalf("clone with %s armed succeeded", point)
			}
			var ferr *fault.Error
			if !errors.As(err, &ferr) || ferr.Point != point {
				t.Fatalf("error %v does not carry fault point %s", err, point)
			}
			for _, r := range res {
				if r.Host == 1 && len(r.Children) > 0 {
					t.Fatalf("children %v survived on receiver after %s", r.Children, point)
				}
			}
			if n := h1.P.XL.Count(); n != 0 {
				t.Fatalf("%d domains on receiver after %s", n, point)
			}
			if got := h0.VC.Snapshot(); got[0] != 0 || got[1] != 0 {
				t.Fatalf("sender vector moved after %s: %v", point, got)
			}
			if got := h1.VC.Snapshot(); got[0] != 0 || got[1] != 0 {
				t.Fatalf("receiver vector moved after %s: %v", point, got)
			}
			if st := h1.Store.Stats(); st.Images != 0 || st.ResidentPages != 0 {
				t.Fatalf("receiver cache populated after %s: %+v", point, st)
			}
			if point == fault.PointClusterXfer {
				l, _ := c.Fabric().Link(0, 1)
				if tr, sent, dedup := l.Stats(); tr != 0 || sent != 0 || dedup != 0 {
					t.Fatalf("aborted xfer committed link counters: %d/%d/%d", tr, sent, dedup)
				}
			}

			// The pipeline heals once the fault clears.
			reg.Reset()
			res, err = h0.P.CloneOp(obs.OpCtx{}, spec)
			if err != nil {
				t.Fatalf("clone after clearing %s: %v", point, err)
			}
			if len(res) != 1 || len(res[0].Children) != 2 {
				t.Fatalf("recovery clone results = %+v", res)
			}
		})
	}
}

// TestRouteCloneConcurrentStress drives routed clones from every host,
// round-robin, each to another host, so every host's fabric counters,
// vector clock and the cluster metrics registry see interleaved transfers
// in both directions.
func TestRouteCloneConcurrentStress(t *testing.T) {
	const hosts = 4
	c := testCluster(hosts)
	recs := make([]*toolstack.Record, hosts)
	for i := 0; i < hosts; i++ {
		recs[i] = bootParent(t, c.Host(i), string(rune('a'+i)))
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < c.Hosts(); i++ {
			dst := (i + 1 + round) % hosts
			if dst == i {
				dst = (dst + 1) % hosts
			}
			h := c.Host(i)
			_, err := h.P.CloneOp(obs.Ctx(h.P.NewMeter()), core.CloneSpec{
				Caller: recs[i].ID, Parent: recs[i].ID, Count: 1,
				Placement: fixed{at: []int{dst}},
			})
			if err != nil {
				t.Fatalf("host %d round %d: %v", i, round, err)
			}
		}
	}
	if n := c.Metrics().Counter("cluster.remote_clones").Value(); n != hosts*3 {
		t.Fatalf("cluster.remote_clones = %d, want %d", n, hosts*3)
	}
	for i := 0; i < hosts; i++ {
		if v := c.Host(i).VC.Snapshot(); v[i] <= 0 {
			t.Fatalf("host %d own component never ticked: %v", i, v)
		}
	}
}

func TestPlacementPolicies(t *testing.T) {
	domains := []int{3, 1, 0, 2}
	eq := func(got, want []int, policy string) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %v, want %v", policy, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: %v, want %v", policy, got, want)
			}
		}
	}

	// Spread fills toward equal domain counts: 2 (0 doms), then 1 (tied
	// at 1 with the updated host 2, lower index wins), and so on.
	eq(Spread{}.Place(5, domains), []int{2, 1, 2, 1, 2}, "spread")

	// Spread is deterministic and leaves its input alone.
	for i := 0; i < 3; i++ {
		eq(Spread{}.Place(5, domains), []int{2, 1, 2, 1, 2}, "spread-replay")
	}
	eq(domains, []int{3, 1, 0, 2}, "spread-input")
}

// TestHeaderHashPinned pins one pageless run's chunk identity by value: it
// picks the run's bond slave, so it is a virtual-time input.
func TestHeaderHashPinned(t *testing.T) {
	ri := toolstack.RunInfo{Start: 46, Count: 975, Kind: toolstack.RunZero}
	if got := headerHash(ri); got != 0x910d97d992503055 {
		t.Fatalf("headerHash = %#x, want 0x910d97d992503055", got)
	}
}
