package core_test

import (
	"runtime"
	"testing"

	"nephele/internal/core"
	"nephele/internal/guest"
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
// child's table, the same fork and destroy cost 67.
const forkAllocs = 36

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
