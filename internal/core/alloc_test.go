package core_test

import (
	"runtime"
	"testing"

	"nephele/internal/core"
	"nephele/internal/guest"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// forkAllocs is what one warm fork of the Fig. 4 guest and the child's
// destroy allocate: what the child keeps (its domain, vCPU, space and
// metadata frame lists, event-channel, grant and ring state, its
// Xenstore nodes and rewritten values, its vif, console and toolstack
// record, the paths and name it is introduced under) and the request's
// own records. Before the child's ID was formatted once, the parent's
// device paths cached and private frames allocated straight into the
// child's table, the same fork and destroy cost 67; before Destroy built
// its Xenstore path on the stack, 36. Before Destroy removed the child's
// backend directories, 35: the store kept every child's console and vif
// directories, so each xs_clone made their <id> and <id>/0 directories
// in fresh table slots, with four new kids arrays, where now it takes the
// slots, and kids arrays, of the last child's.
const forkAllocs = 31

// TestForkAllocs pins the host allocations of the clone-fanout cycle:
// CloneOp(Count=1) of a warm 4 MB Mini-OS parent with one vif (and its
// console), then Destroy of the child, at child IDs of three and four
// digits, which do not format without allocating.
func TestForkAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	// sync.Pool caches per P and drops its caches when GOMAXPROCS
	// changes, so the pools warm up on the one P the count runs on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p := core.NewPlatform(core.Options{})
	rec, err := p.Boot(toolstack.DomainConfig{
		Name: "parent", MemoryMB: 4, VCPUs: 1, MaxClones: 1 << 20,
		Vifs: []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil); err != nil {
		t.Fatal(err)
	}
	spec := core.CloneSpec{Caller: rec.ID, Parent: rec.ID, Count: 1}
	meter := p.NewMeter()
	var child core.DomID
	cycle := func() {
		meter.Reset()
		res, err := p.CloneOp(obs.Ctx(meter), spec)
		if err != nil {
			t.Fatal(err)
		}
		child = res[0].Children[0]
		if err := p.Destroy(child, meter); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		cycle() // the first clone's set-up, the parent cache and the pools
	}
	if child < 100 {
		t.Fatalf("warm-up ended at child %d, want an ID of three digits", child)
	}
	if allocs := testing.AllocsPerRun(1000, cycle); allocs != forkAllocs {
		t.Fatalf("fork + destroy of the Fig. 4 guest: %.0f allocs per child, want %d", allocs, forkAllocs)
	}
}

// createAllocs is what one warm create of the Fig. 4 guest and its destroy
// allocate, per path: what the domain keeps (its domain, vCPU, space and
// metadata frame lists, event-channel, grant and ring state, its Xenstore
// nodes and values, its vif, console, heap and toolstack record) and a few
// records of the op itself; the pages it writes come back warm from the
// page pool. Before each device's paths and the vif's MAC and IP
// values were built as one string, the boot line without boxing, a cached
// restore's displaced frames released through a stack buffer and Destroy's
// path formatted on the stack, the same cycles cost 45, 36 and 45. Before
// Destroy removed the domain's backend directories, 36, 29 and 29: the
// store kept every domain's, so each create wrote its backend directories
// into fresh table slots and grew their kids arrays from empty, eight
// allocations a cycle, where now it takes the freed slots back with the
// arrays they had.
var createAllocs = map[string]float64{"boot": 28, "restore": 21, "restore-cached": 21}

// TestCreateAllocs pins the host allocations of the create-churn ops: Boot
// (xl create and the guest's boot), Restore and RestoreCachedOp of a warm
// 4 MB Mini-OS guest with one vif (and its console), each followed by
// Destroy, at domain IDs of three digits and up.
func TestCreateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race")
	}
	// sync.Pool caches per P and drops its caches when GOMAXPROCS
	// changes, so the pools warm up on the one P the count runs on.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := toolstack.DomainConfig{
		Name: "churn", MemoryMB: 4, VCPUs: 1, MaxClones: 1 << 20,
		Vifs: []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}
	for _, path := range []string{"boot", "restore", "restore-cached"} {
		t.Run(path, func(t *testing.T) {
			p := core.NewPlatform(core.Options{SkipNameCheck: true})
			img := savedGuest(t, p, cfg)
			store := p.NewImageStore(0)
			if err := store.Insert(img, nil); err != nil {
				t.Fatal(err)
			}
			meter := p.NewMeter()
			var id core.DomID
			create := map[string]func() (*toolstack.Record, error){
				"boot": func() (*toolstack.Record, error) {
					rec, err := p.Boot(cfg, meter)
					if err == nil {
						_, err = guest.Boot(p, rec, guest.FlavorMiniOS, meter)
					}
					return rec, err
				},
				"restore": func() (*toolstack.Record, error) { return p.XL.Restore(img, cfg.Name, meter) },
				"restore-cached": func() (*toolstack.Record, error) {
					rec, hit, err := p.XL.RestoreCachedOp(obs.Ctx(meter), store, img, cfg.Name)
					if err == nil && !hit {
						t.Fatal("cached restore of a resident image missed")
					}
					return rec, err
				},
			}[path]
			cycle := func() {
				meter.Reset()
				rec, err := create()
				if err != nil {
					t.Fatal(err)
				}
				id = rec.ID
				if err := p.Destroy(id, meter); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				cycle() // the pools, and IDs of three digits
			}
			if id < 100 {
				t.Fatalf("warm-up ended at domain %d, want an ID of three digits", id)
			}
			if allocs := testing.AllocsPerRun(1000, cycle); allocs != createAllocs[path] {
				t.Fatalf("%s + destroy of the Fig. 4 guest: %.0f allocs, want %.0f", path, allocs, createAllocs[path])
			}
		})
	}
}

// savedGuest boots a guest of cfg, writes a short run and a long one of
// its heap (longer than AdoptShared's release chunk) and a few scattered
// pages, saves it and destroys it.
func savedGuest(t *testing.T, p *core.Platform, cfg toolstack.DomainConfig) *toolstack.Image {
	t.Helper()
	rec, err := p.Boot(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := guest.Boot(p, rec, guest.FlavorMiniOS, nil); err != nil {
		t.Fatal(err)
	}
	dom, err := p.HV.Domain(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	var pfns []mem.PFN
	for pfn := mem.PFN(16); pfn < 20; pfn++ {
		pfns = append(pfns, pfn)
	}
	for pfn := mem.PFN(100); pfn < 250; pfn++ {
		pfns = append(pfns, pfn)
	}
	for pfn := mem.PFN(300); pfn < 900; pfn += 97 {
		pfns = append(pfns, pfn)
	}
	for _, pfn := range pfns {
		if err := dom.Space().Write(pfn, 0, []byte{byte(pfn), byte(pfn >> 8), 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	img, err := p.XL.Save(rec.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Destroy(rec.ID, nil); err != nil {
		t.Fatal(err)
	}
	return img
}
