package core

import (
	"fmt"
	"testing"
	"time"

	"nephele/internal/devices"
	"nephele/internal/fault"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// kindFixture says how to configure, find and fail the cloning of one
// device of a kind. A kind the table registers but this map lacks fails
// TestDeviceKindLifecycle, so a new kind is covered by one entry here.
type kindFixture struct {
	cloneFault string // the point the backend's clone path consults
	configure  func(cfg *toolstack.DomainConfig)
	owns       func(p *Platform, id DomID) bool
}

var kindFixtures = map[string]kindFixture{
	"console": {
		cloneFault: fault.PointDevConsoleClone,
		configure:  func(*toolstack.DomainConfig) {}, // every guest has one
		owns:       func(p *Platform, id DomID) bool { return p.Backends.Console.Has(uint32(id)) },
	},
	"vif": {
		cloneFault: fault.PointDevVifClone,
		configure: func(cfg *toolstack.DomainConfig) {
			cfg.Vifs = []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}}
		},
		owns: func(p *Platform, id DomID) bool { _, err := p.GuestVif(id, 0); return err == nil },
	},
	"9pfs": {
		cloneFault: fault.PointDev9pfsClone,
		configure: func(cfg *toolstack.DomainConfig) {
			cfg.NinePFS = []toolstack.NinePConfig{{Export: "/export", Tag: "root"}}
		},
		owns: func(p *Platform, id DomID) bool { _, err := p.Backends.NineP.Process(uint32(id)); return err == nil },
	},
	"vbd": {
		cloneFault: fault.PointDevVbdClone,
		configure:  func(cfg *toolstack.DomainConfig) { cfg.Vbds = []toolstack.VbdConfig{{}} },
		owns:       func(p *Platform, id DomID) bool { _, err := p.Backends.Vbd.Vbd(uint32(id), 0); return err == nil },
	},
}

// deviceCounts is what a clone's devices add to the host and its teardown
// must give back.
type deviceCounts struct {
	vifs, vbds, slaves, storeNodes, domains int
}

func countDevices(p *Platform) deviceCounts {
	return deviceCounts{
		vifs:       p.Backends.Net.Count(),
		vbds:       p.Backends.Vbd.Count(),
		slaves:     p.Bond.Slaves(),
		storeNodes: p.Store.NodeCount(),
		domains:    p.HV.DomainCount(),
	}
}

// TestDeviceKindLifecycle walks the device-kind table: for every registered
// kind a guest owning one device of it is booted and forked, the child's
// store directories and backend object must exist, and both ways out —
// destroying the child, and a fatal fault in the kind's clone path — must
// return the backends, the switch and the store to their pre-fork state.
func TestDeviceKindLifecycle(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		p := smallPlatform(Options{SkipNameCheck: true})
		reg := fault.NewRegistry()
		p.SetFaults(reg)
		for k := range p.XL.Devices {
			kind := &p.XL.Devices[k]
			t.Run(fmt.Sprintf("%s/faulted=%v", kind.Dir, faulted), func(t *testing.T) {
				fx, ok := kindFixtures[kind.Dir]
				if !ok {
					t.Fatalf("device kind %q has no fixture in kindFixtures", kind.Dir)
				}
				cfg := toolstack.DomainConfig{Name: "parent-" + kind.Dir, MemoryMB: 4, VCPUs: 1, MaxClones: 8}
				fx.configure(&cfg)
				rec, err := p.Boot(cfg, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !fx.owns(p, rec.ID) {
					t.Fatalf("booted parent owns no %s backend object", kind.Dir)
				}
				before := countDevices(p)

				if faulted {
					reg.Inject(fx.cloneFault, fault.FailAlways(), fault.Fatal)
					res, err := fork(p, rec.ID, 1, nil)
					reg.Clear(fx.cloneFault)
					if err == nil || !fault.IsFatal(err) {
						t.Fatalf("fork with %s armed: err = %v, want the fatal fault", fx.cloneFault, err)
					}
					if len(res.Failed) != 1 {
						t.Fatalf("Failed = %v, want the one child", res.Failed)
					}
					child := res.Failed[0]
					if fx.owns(p, child) {
						t.Fatalf("rolled-back child still owns a %s backend object", kind.Dir)
					}
					// Rollback removes the backend directories too, so the whole
					// store is back where it was.
					if after := countDevices(p); after != before {
						t.Fatalf("after rollback %+v, want the pre-fork %+v", after, before)
					}
				} else {
					res, err := fork(p, rec.ID, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					child := res.Children[0]
					for _, dir := range []string{
						devices.FrontendDir(uint32(child), kind.Dir) + "/0",
						devices.BackendDir(uint32(child), kind.Dir) + "/0",
					} {
						if !p.Store.Exists(dir, nil) {
							t.Fatalf("child store directory %s missing", dir)
						}
					}
					if !fx.owns(p, child) {
						t.Fatalf("child owns no %s backend object", kind.Dir)
					}
					if err := p.Destroy(child, nil); err != nil {
						t.Fatal(err)
					}
					if fx.owns(p, child) {
						t.Fatalf("destroyed child still owns a %s backend object", kind.Dir)
					}
					if p.Store.Exists(fmt.Sprintf("/local/domain/%d", child), nil) {
						t.Fatal("destroyed child's store subtree survives")
					}
					if after := countDevices(p); after != before {
						t.Fatalf("after destroy %+v, want the pre-fork %+v", after, before)
					}
				}
				if err := p.Destroy(rec.ID, nil); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// oneVifCloneTotal is the virtual time of forking a console + one-vif 4 MB
// guest once on smallPlatform, as it was before the per-kind clone loop.
const oneVifCloneTotal = 22765350 * time.Nanosecond

// TestCloneOneXsClonePerDirectory pins the paper's "one xs_clone request
// per directory": a parent's vifs share one frontend and one backend
// directory, so a child costs two requests per device kind present however
// many vifs there are, and every child vif still exists and is enslaved.
func TestCloneOneXsClonePerDirectory(t *testing.T) {
	for _, nvifs := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("vifs=%d", nvifs), func(t *testing.T) {
			p := smallPlatform(Options{SkipNameCheck: true})
			cfg := udpServerConfig("parent")
			cfg.Vifs = nil
			for i := 0; i < nvifs; i++ {
				cfg.Vifs = append(cfg.Vifs, toolstack.VifConfig{IP: netsim.IP{10, 0, 0, byte(2 + i)}})
			}
			rec, err := p.Boot(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			reqs, vifs, slaves := p.Store.Stats().CloneReqs, p.Backends.Net.Count(), p.Bond.Slaves()
			meter := p.NewMeter()
			res, err := fork(p, rec.ID, 1, meter)
			if err != nil {
				t.Fatal(err)
			}
			// Console and vif: two kinds, a frontend and a backend directory each.
			if got := p.Store.Stats().CloneReqs - reqs; got != 4 {
				t.Errorf("child was served %d xs_clone requests, want 4", got)
			}
			child := res.Children[0]
			for i := 0; i < nvifs; i++ {
				if _, err := p.GuestVif(child, i); err != nil {
					t.Errorf("child vif %d: %v", i, err)
				}
			}
			if got := p.Backends.Net.Count() - vifs; got != nvifs {
				t.Errorf("netback gained %d vifs, want %d", got, nvifs)
			}
			if got := p.Bond.Slaves() - slaves; got != nvifs {
				t.Errorf("bond gained %d slaves, want %d", got, nvifs)
			}
			if nvifs == 1 && res.Total != oneVifCloneTotal {
				t.Errorf("1-vif clone took %v virtual, want %v", res.Total, oneVifCloneTotal)
			}
		})
	}
}

// TestDestroyConservesStoreNodes makes a domain owning one device of each
// kind in turn by every way there is — Boot, Restore, RestoreCachedOp and a
// fork — and destroys it: the store must hold as many nodes afterwards as
// before, because Destroy removes the domain's subtree and its backend
// directory of every kind it has. A warm-up round first makes what stays:
// each kind's directory under Dom0's backend/, which a guest's backend
// directory of the kind goes in.
func TestDestroyConservesStoreNodes(t *testing.T) {
	for _, kind := range []string{"console", "vif", "9pfs", "vbd"} {
		t.Run(kind, func(t *testing.T) {
			p := smallPlatform(Options{SkipNameCheck: true})
			cfg := toolstack.DomainConfig{Name: "parent", MemoryMB: 4, VCPUs: 1, MaxClones: 8}
			kindFixtures[kind].configure(&cfg)
			parent, err := p.Boot(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			img, err := p.XL.Save(parent.ID, nil)
			if err != nil {
				t.Fatal(err)
			}
			images := p.NewImageStore(0)
			if err := images.Insert(img, nil); err != nil {
				t.Fatal(err)
			}
			boot := cfg
			boot.Name = "booted"
			ops := []struct {
				name   string
				create func() (DomID, error)
			}{
				{"boot", func() (DomID, error) {
					rec, err := p.Boot(boot, nil)
					if err != nil {
						return 0, err
					}
					return rec.ID, nil
				}},
				{"restore", func() (DomID, error) {
					rec, err := p.XL.Restore(img, "restored", nil)
					if err != nil {
						return 0, err
					}
					return rec.ID, nil
				}},
				{"restore-cached", func() (DomID, error) {
					rec, hit, err := p.XL.RestoreCachedOp(obs.OpCtx{}, images, img, "cached")
					if err != nil {
						return 0, err
					}
					if !hit {
						t.Fatal("cached restore of a resident image missed")
					}
					return rec.ID, nil
				}},
				{"fork", func() (DomID, error) {
					res, err := fork(p, parent.ID, 1, nil)
					if err != nil {
						return 0, err
					}
					return res.Children[0], nil
				}},
			}
			for round := 0; round < 2; round++ {
				for _, op := range ops {
					before := p.Store.NodeCount()
					id, err := op.create()
					if err != nil {
						t.Fatalf("%s: %v", op.name, err)
					}
					if !kindFixtures[kind].owns(p, id) {
						t.Fatalf("%s: the domain owns no %s backend object", op.name, kind)
					}
					if err := p.Destroy(id, nil); err != nil {
						t.Fatalf("%s: %v", op.name, err)
					}
					if after := p.Store.NodeCount(); round > 0 && after != before {
						t.Fatalf("%s + destroy: the store holds %d nodes, %d before", op.name, after, before)
					}
				}
			}
		})
	}
}
