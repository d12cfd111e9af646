package mem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// readTag returns the first n bytes of guest page pfn.
func readTag(t *testing.T, s *Space, pfn PFN, n int) string {
	t.Helper()
	buf := make([]byte, n)
	if err := s.Read(pfn, 0, buf); err != nil {
		t.Fatalf("dom %d read pfn %d: %v", s.Dom(), pfn, err)
	}
	return string(buf)
}

// TestResetOpFailedKeepsDirtyList is the regression for a clone_reset that
// forgot its work list when it failed: one of the two dirtied pages cannot be
// restored (the parent's entry names a frame a third domain owns), so the
// reset must restore nothing, leave the pool and both tables as they were,
// and do the whole job once the entry is healed.
func TestResetOpFailedKeepsDirtyList(t *testing.T) {
	const parentDom, childDom, thirdDom = 1, 2, 99
	m := newTestMem(512)
	parent := newTestSpace(t, m, parentDom, 32)
	for _, pfn := range []PFN{10, 20} {
		if err := parent.Write(pfn, 0, []byte(fmt.Sprintf("P%d", pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	child, _, err := parent.CloneOp(obs.OpCtx{}, childDom, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pfn := range []PFN{10, 20} {
		if err := child.Write(pfn, 0, []byte(fmt.Sprintf("C%d", pfn)), nil); err != nil {
			t.Fatal(err)
		}
	}
	foreign := alloc1(t, m, thirdDom)
	healthy := parent.ptes[20].mfn()
	parent.ptes[20] = parent.ptes[20].withMFN(foreign)

	type image struct {
		free, shared            int
		parent, child, third    int
		cow                     int
		child10, child20        MFN
		parentCOW10, childCOW10 bool
	}
	capture := func() image {
		return image{
			free: m.FreeFrames(), shared: m.SharedFrames(),
			parent: m.UsedBy(parentDom), child: m.UsedBy(childDom), third: m.UsedBy(thirdDom),
			cow:     m.UsedBy(DomIDCOW),
			child10: child.ptes[10].mfn(), child20: child.ptes[20].mfn(),
			parentCOW10: parent.ptes[10].cow(), childCOW10: child.ptes[10].cow(),
		}
	}
	before := capture()
	meter := vclock.NewMeter(nil)
	restored, err := child.ResetOp(obs.Ctx(meter), parent)
	if !errors.Is(err, ErrNotOwner) || restored != 0 {
		t.Fatalf("reset over a foreign-owned parent entry: restored %d, err %v; want 0, ErrNotOwner", restored, err)
	}
	if after := capture(); after != before {
		t.Fatalf("failed reset changed state:\n before %+v\n after  %+v", before, after)
	}
	if meter.Elapsed() != 0 {
		t.Fatalf("failed reset charged %v", meter.Elapsed())
	}
	if got := readTag(t, child, 10, 3); got != "C10" {
		t.Fatalf("failed reset restored pfn 10: child reads %q", got)
	}

	parent.ptes[20] = parent.ptes[20].withMFN(healthy)
	restored, err = child.ResetOp(obs.OpCtx{}, parent)
	if err != nil || restored != 2 {
		t.Fatalf("healed retry: restored %d, err %v; want 2, nil", restored, err)
	}
	for _, pfn := range []PFN{10, 20} {
		if got, want := readTag(t, child, pfn, 3), fmt.Sprintf("P%d", pfn); got != want {
			t.Errorf("after the retry child pfn %d reads %q, want %q", pfn, got, want)
		}
	}
	if restored, err = child.ResetOp(obs.OpCtx{}, parent); err != nil || restored != 0 {
		t.Fatalf("reset of a clean child: restored %d, err %v", restored, err)
	}
	audit(t, m)
}

// TestResetOpDifferential drives random child writes, parent writes, COW
// touches and resets over an eager and a lazy child and holds them against a
// byte model of fork semantics: a reset makes every page the child had
// privatized read what the parent reads at that moment, nothing else in
// either space ever changes under it, restored is the number of privatized
// pages, the meter moves by one PageShare per restored page whose frame the
// parent had taken private again, and the pool's accounting invariant and
// Audit hold throughout.
func TestResetOpDifferential(t *testing.T) {
	for _, mode := range []CloneMode{CloneEager, CloneLazy} {
		for seed := int64(1); seed <= 12; seed++ {
			mode, seed := mode, seed
			t.Run(fmt.Sprintf("%s/seed=%d", mode, seed), func(t *testing.T) {
				resetDifferential(t, mode, seed)
			})
		}
	}
}

func resetDifferential(t *testing.T, mode CloneMode, seed int64) {
	const (
		parentDom, childDom = 1, 2
		pages               = 48
		privatePFN          = 5 // a start_info page: duplicated, never COW
	)
	rng := rand.New(rand.NewSource(seed))
	m := newTestMem(1024)
	parent := newTestSpace(t, m, parentDom, pages)
	parent.SetKind(privatePFN, KindStartInfo)
	model := map[*Space][]byte{parent: make([]byte, pages)}
	for pfn := 0; pfn < pages; pfn += 2 {
		model[parent][pfn] = byte(1 + rng.Intn(255))
		if err := parent.Write(PFN(pfn), 0, model[parent][pfn:pfn+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	child, _, err := parent.CloneOpMode(obs.OpCtx{}, childDom, true, mode)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Release()
	model[child] = append([]byte(nil), model[parent]...)

	// childPriv: pages the child privatized since its last reset.
	// parentPriv: pages whose frame the parent took private again since the
	// family last shared it.
	childPriv, parentPriv := map[PFN]bool{}, map[PFN]bool{}
	check := func(when string) {
		t.Helper()
		for _, s := range []*Space{parent, child} {
			for pfn := 0; pfn < pages; pfn++ {
				if got := readTag(t, s, PFN(pfn), 1)[0]; got != model[s][pfn] {
					t.Fatalf("%s: dom %d pfn %d reads %d, want %d", when, s.Dom(), pfn, got, model[s][pfn])
				}
			}
		}
		used := m.UsedBy(parentDom) + m.UsedBy(childDom) + m.UsedBy(DomIDCOW)
		if used+m.FreeFrames() != m.TotalFrames() || m.SharedFrames() != m.UsedBy(DomIDCOW) {
			t.Fatalf("%s: accounting broke: used %d + free %d != total %d, or shared %d != dom_cow's %d",
				when, used, m.FreeFrames(), m.TotalFrames(), m.SharedFrames(), m.UsedBy(DomIDCOW))
		}
		if err := m.Audit(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	for step := 0; step < 400; step++ {
		pfn := PFN(rng.Intn(pages))
		val := []byte{byte(1 + rng.Intn(255))}
		when := fmt.Sprintf("step %d", step)
		switch op := rng.Intn(10); {
		case op < 4:
			when += fmt.Sprintf(" (child writes pfn %d)", pfn)
			if err := child.Write(pfn, 0, val, nil); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			model[child][pfn] = val[0]
			childPriv[pfn] = pfn != privatePFN
		case op < 6:
			when += fmt.Sprintf(" (child touches pfn %d)", pfn)
			if err := child.TouchCOW(obs.OpCtx{}, pfn); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			childPriv[pfn] = pfn != privatePFN
		case op < 8:
			when += fmt.Sprintf(" (parent writes pfn %d)", pfn)
			if err := parent.Write(pfn, 0, val, nil); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			model[parent][pfn] = val[0]
			parentPriv[pfn] = pfn != privatePFN
		default:
			when += " (reset)"
			wantRestored, wantTransfers := 0, 0
			for pfn, priv := range childPriv {
				if !priv {
					continue
				}
				wantRestored++
				if parentPriv[pfn] {
					wantTransfers++
					delete(parentPriv, pfn)
				}
				model[child][pfn] = model[parent][pfn]
			}
			childPriv = map[PFN]bool{}
			meter := vclock.NewMeter(nil)
			// Drain the stream outside the measured reset: its deferred
			// clone charges are not the reset's.
			if err := child.Drain(obs.OpCtx{}); err != nil {
				t.Fatalf("%s: drain: %v", when, err)
			}
			restored, err := child.ResetOp(obs.Ctx(meter), parent)
			if err != nil || restored != wantRestored {
				t.Fatalf("%s: restored %d, err %v; want %d", when, restored, err, wantRestored)
			}
			if want := meter.Costs().PageShare * vclock.Duration(wantTransfers); meter.Elapsed() != want {
				t.Fatalf("%s: charged %v, want %v (%d transfers)", when, meter.Elapsed(), want, wantTransfers)
			}
		}
		check(when)
	}
}
