package cloned

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"nephele/internal/hv"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
	"nephele/internal/vclock"
)

// TestStressMultiParentCloneOpServeAll drives concurrent CLONEOPs from
// several distinct parents while a daemon goroutine drains mixed batches
// with Serve, so concurrent callers of hv.Clone race each other and the
// daemon on the one memory pool and the notification ring. Run under -race
// (the CI configuration), it checks that every child of every parent
// completes, per-parent notification order holds (children of one parent
// are served in creation order), and the final machine state accounts for
// every clone.
func TestStressMultiParentCloneOpServeAll(t *testing.T) {
	const (
		parents   = 4
		iters     = 5
		batch     = 3
		cloneWait = 30 * time.Second
	)

	r := newFaultRig(t, Options{})
	recs := make([]*toolstack.Record, parents)
	for i := range recs {
		rec, err := r.xl.Create(toolstack.DomainConfig{
			Name:      fmt.Sprintf("mp-parent-%d", i),
			MemoryMB:  4,
			VCPUs:     1,
			MaxClones: 256,
			Vifs:      []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, byte(10 + i)}}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
	}

	var stopDaemon sync.WaitGroup
	stop := make(chan struct{})
	stopDaemon.Add(1)
	go func() {
		defer stopDaemon.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.d.Serve(obs.Ctx(vclock.NewMeter(nil)))
				time.Sleep(20 * time.Microsecond)
			}
		}
	}()

	var mu sync.Mutex
	created := make(map[hv.DomID][]hv.DomID) // parent -> children in creation order
	var wg sync.WaitGroup
	for g := 0; g < parents; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			parent := recs[g].ID
			for i := 0; i < iters; i++ {
				n := 1 + (g+i)%batch
				kids, _, done, err := cloneN(r.hv, parent, parent, n, vclock.NewMeter(nil))
				if err != nil {
					t.Errorf("parent %d iter %d: clone failed: %v", parent, i, err)
					return
				}
				mu.Lock()
				created[parent] = append(created[parent], kids...)
				mu.Unlock()
				select {
				case <-done:
				case <-time.After(cloneWait):
					t.Errorf("parent %d iter %d: completion wait never released (deadlock)", parent, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	stopDaemon.Wait()
	if t.Failed() {
		return
	}

	if _, err := r.d.Serve(obs.Ctx(vclock.NewMeter(nil))); err != nil {
		t.Fatalf("final drain failed: %v", err)
	}
	if pending := r.hv.PendingNotifications(); pending != 0 {
		t.Fatalf("%d notifications left in the ring", pending)
	}

	total := 0
	for parent, kids := range created {
		for _, k := range kids {
			out, ok := r.hv.CloneOutcome(k)
			if !ok || out != hv.OutcomeCompleted {
				t.Fatalf("child %d of parent %d: outcome %v, ok=%v, want completed", k, parent, out, ok)
			}
			d, err := r.hv.Domain(k)
			if err != nil {
				t.Fatalf("completed child %d missing from the hypervisor", k)
			}
			if d.Paused() {
				t.Errorf("completed child %d left paused", k)
			}
			if _, err := r.xl.Record(k); err != nil {
				t.Errorf("completed child %d missing from the toolstack", k)
			}
		}
		total += len(kids)
	}
	if got, want := r.hv.DomainCount(), 1+parents+total; got != want {
		t.Fatalf("domain count = %d, want %d (Dom0 + %d parents + %d clones)", got, want, parents, total)
	}
	if got := r.d.Served(); got != total {
		t.Fatalf("daemon served %d, but %d children completed", got, total)
	}
	for _, rec := range recs {
		if pd, _ := r.hv.Domain(rec.ID); pd.Paused() {
			t.Fatalf("parent %d left paused", rec.ID)
		}
	}
}
