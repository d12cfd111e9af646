package core

import (
	"errors"
	"regexp"
	"slices"
	"strconv"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// ballastDom owns the frames TestOOMSweep takes out of the pool; hv never
// hands out an ID this high on a test platform.
const ballastDom mem.DomID = 0x7FEF

// oomWant parses the frame shortfall out of an ErrOutOfMemory.
var oomWant = regexp.MustCompile(`want (\d+) frames, (\d+) free`)

// oomOp runs one operation under ctx and returns every domain it created,
// even when it fails.
type oomOp func(ctx obs.OpCtx) ([]DomID, error)

// oomRows build, on a fresh platform and image store, what each swept
// operation needs and return the operation.
var oomRows = []struct {
	name  string
	setup func(t *testing.T, p *Platform, st *toolstack.ImageStore) oomOp
}{
	{"boot", func(t *testing.T, p *Platform, _ *toolstack.ImageStore) oomOp {
		return func(obs.OpCtx) ([]DomID, error) {
			return recIDs(p.Boot(udpServerConfig("oom"), nil))
		}
	}},
	{"clone-eager", func(t *testing.T, p *Platform, _ *toolstack.ImageStore) oomOp {
		return cloneOOMOp(p, oomBoot(t, p), CloneEager)
	}},
	{"clone-lazy", func(t *testing.T, p *Platform, _ *toolstack.ImageStore) oomOp {
		return cloneOOMOp(p, oomBoot(t, p), CloneLazy)
	}},
	{"restore", func(t *testing.T, p *Platform, _ *toolstack.ImageStore) oomOp {
		img := oomImage(t, p)
		return func(obs.OpCtx) ([]DomID, error) {
			return recIDs(p.XL.Restore(img, "oom", nil))
		}
	}},
	{"restore-cached-miss", func(t *testing.T, p *Platform, st *toolstack.ImageStore) oomOp {
		img := oomImage(t, p)
		return func(ctx obs.OpCtx) ([]DomID, error) {
			rec, _, err := p.XL.RestoreCachedOp(ctx, st, img, "oom")
			if err == nil && !st.Contains(img) {
				// The restore swallowed its insert failure; the store
				// rolled back, so the same insert fails the same way.
				err = st.Insert(img, nil)
			}
			return recIDs(rec, err)
		}
	}},
	{"restore-cached-hit", func(t *testing.T, p *Platform, st *toolstack.ImageStore) oomOp {
		img := oomImage(t, p)
		if err := st.Insert(img, nil); err != nil {
			t.Fatal(err)
		}
		return func(ctx obs.OpCtx) ([]DomID, error) {
			rec, _, err := p.XL.RestoreCachedOp(ctx, st, img, "oom")
			return recIDs(rec, err)
		}
	}},
	{"cow-parent", func(t *testing.T, p *Platform, _ *toolstack.ImageStore) oomOp {
		parent, child := oomLazyPair(t, p)
		return writeOOMOp(p, parent, child)
	}},
	{"cow-lazy-child", func(t *testing.T, p *Platform, _ *toolstack.ImageStore) oomOp {
		_, child := oomLazyPair(t, p)
		return writeOOMOp(p, child, child)
	}},
}

// TestOOMSweep makes every frame allocation of each operation fail in
// turn, the way Fig. 5's density run drives the machine out of memory. A
// ballast domain holds all free frames but k; AllocN is all-or-nothing, so
// k steps straight to the next allocation boundary the failure names.
// After each failed run no span may be left open, the pool must be back
// where it was once the domains the op returned are destroyed, and an op
// that returned none must leave the Xenstore node count too.
func TestOOMSweep(t *testing.T) {
	for _, row := range oomRows {
		t.Run(row.name, func(t *testing.T) {
			p := smallPlatform(Options{MemoryBytes: 64 << 20, SkipNameCheck: true})
			st := p.NewImageStore(0)
			op := row.setup(t, p, st)
			m := p.HV.Memory
			runs := 0
			for k := 0; ; runs++ {
				free, nodes := m.FreeFrames(), p.Store.NodeCount()
				ballast, err := m.AllocN(ballastDom, free-k, nil)
				if err != nil {
					t.Fatal(err)
				}
				tr := obs.NewTrace()
				doms, err := op(obs.OpCtx{}.WithTrace(tr))
				m.ReleaseN(ballastDom, ballast)
				for _, s := range tr.Spans() {
					if s.EndV < 0 {
						t.Errorf("k=%d: span %q left open", k, s.Name)
					}
				}
				if err == nil {
					break
				}
				want := oomWant.FindStringSubmatch(err.Error())
				if !errors.Is(err, mem.ErrOutOfMemory) || want == nil {
					t.Fatalf("k=%d: %v, want an out-of-memory failure", k, err)
				}
				destroyAll(t, p, doms)
				if got := m.FreeFrames(); got != free {
					t.Errorf("k=%d: %v: %d free frames after destroying %v, want %d", k, err, got, doms, free)
				}
				if err := m.Audit(); err != nil {
					t.Errorf("k=%d: %v", k, err)
				}
				if got := p.Store.NodeCount(); len(doms) == 0 && got != nodes {
					t.Errorf("k=%d: %v: %d store nodes, want %d", k, err, got, nodes)
				}
				w, _ := strconv.Atoi(want[1])
				f, _ := strconv.Atoi(want[2])
				k += w - f
			}
			if runs == 0 {
				t.Fatal("the op never ran out of frames")
			}
			t.Logf("%d failed runs", runs)
			destroyAll(t, p, slices.DeleteFunc(p.HV.Domains(), func(id DomID) bool { return id == 0 }))
			st.Flush()
			if free, total := m.FreeFrames(), m.TotalFrames(); free != total {
				t.Errorf("after %d failed runs and teardown: %d of %d frames free", runs, free, total)
			}
			if err := m.Audit(); err != nil {
				t.Error(err)
			}
		})
	}
}

// recIDs lifts a toolstack result into an oomOp's.
func recIDs(rec *toolstack.Record, err error) ([]DomID, error) {
	if rec == nil {
		return nil, err
	}
	return []DomID{rec.ID}, err
}

// destroyAll tears the domains down, newest first so children go before
// their parents.
func destroyAll(t *testing.T, p *Platform, doms []DomID) {
	t.Helper()
	slices.Sort(doms)
	for i := len(doms) - 1; i >= 0; i-- {
		if err := p.Destroy(doms[i], nil); err != nil {
			t.Fatalf("destroy %d: %v", doms[i], err)
		}
	}
}

func oomBoot(t *testing.T, p *Platform) DomID {
	t.Helper()
	rec, err := p.Boot(udpServerConfig("oom-parent"), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec.ID
}

// oomImage saves a booted guest that has written one page, so a cache
// insert of the image has a chunk to allocate.
func oomImage(t *testing.T, p *Platform) *toolstack.Image {
	t.Helper()
	id := oomBoot(t, p)
	d, _ := p.HV.Domain(id)
	if err := d.Space().Write(7, 0, []byte("saved"), nil); err != nil {
		t.Fatal(err)
	}
	img, err := p.XL.Save(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// oomLazyPair boots a parent and clones one lazy child of it.
func oomLazyPair(t *testing.T, p *Platform) (parent, child DomID) {
	t.Helper()
	parent = oomBoot(t, p)
	res, err := p.CloneOp(obs.OpCtx{}, CloneSpec{Caller: parent, Parent: parent, Count: 1, Mode: CloneLazy})
	if err != nil {
		t.Fatal(err)
	}
	return parent, res[0].Children[0]
}

func cloneOOMOp(p *Platform, parent DomID, mode CloneMode) oomOp {
	return func(ctx obs.OpCtx) ([]DomID, error) {
		res, err := p.CloneOp(ctx, CloneSpec{Caller: parent, Parent: parent, Count: 2, Mode: mode})
		var doms []DomID
		for _, r := range res {
			doms = append(doms, r.Children...)
		}
		return doms, err
	}
}

// writeOOMOp breaks COW on a family-shared page of writer, then drains
// child.
func writeOOMOp(p *Platform, writer, child DomID) oomOp {
	return func(ctx obs.OpCtx) ([]DomID, error) {
		d, _ := p.HV.Domain(writer)
		if err := d.Space().WriteOp(ctx, 7, 0, []byte("dirty")); err != nil {
			return nil, err
		}
		return nil, p.WaitStreamed(ctx, child)
	}
}
