package core_test

import (
	"errors"
	"testing"

	"nephele/internal/cluster"
	"nephele/internal/core"
	"nephele/internal/hv"
	"nephele/internal/mem"
	"nephele/internal/netsim"
	"nephele/internal/obs"
	"nephele/internal/toolstack"
)

// The migration contract as a platform sees it — state and name move, the
// family stays together, a failed move leaves the source running, the moved
// guest forks on its new machine — on the two-host cluster that implements
// it. The transport's own guarantees (fault rollback, dedup) are pinned in
// internal/cluster.

func twoHosts() (*cluster.Cluster, *core.Platform, *core.Platform) {
	c := cluster.New(cluster.Options{
		Hosts: 2,
		Platform: core.Options{
			HV:                  hv.Config{MemoryBytes: 1 << 30, PerDomainOverheadFrames: 90},
			StoreLogRotateEvery: -1,
			SkipNameCheck:       true,
		},
	})
	return c, c.Host(0).P, c.Host(1).P
}

func bootGuest(t *testing.T, p *core.Platform, name string) *toolstack.Record {
	t.Helper()
	rec, err := p.Boot(toolstack.DomainConfig{
		Name: name, MemoryMB: 4, VCPUs: 1, MaxClones: 1000,
		Vifs: []toolstack.VifConfig{{IP: netsim.IP{10, 0, 0, 2}}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func forkOnce(t *testing.T, p *core.Platform, id core.DomID) core.DomID {
	t.Helper()
	res, err := p.CloneOp(obs.OpCtx{}, core.CloneSpec{Caller: id, Parent: id, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	return res[0].Children[0]
}

func TestMigrateMovesDomainAcrossPlatforms(t *testing.T) {
	c, src, dst := twoHosts()
	rec := bootGuest(t, src, "traveller")
	dom, _ := src.HV.Domain(rec.ID)
	if err := dom.Space().Write(7, 0, []byte("guest state"), nil); err != nil {
		t.Fatal(err)
	}

	res, err := c.Migrate(obs.Ctx(src.NewMeter()), 0, rec.ID, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Children) != 1 || res.Host != 1 {
		t.Fatalf("result = %+v, want one child on host 1", res.OpResult)
	}
	newRec, err := dst.XL.Record(res.Children[0])
	if err != nil {
		t.Fatal(err)
	}
	if newRec.Config.Name != "traveller" {
		t.Fatalf("migrated under name %q, want the source's", newRec.Config.Name)
	}
	// The guest state arrived intact.
	newDom, err := dst.HV.Domain(newRec.ID)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 11)
	newDom.Space().Read(7, 0, buf)
	if string(buf) != "guest state" {
		t.Fatalf("migrated state = %q", buf)
	}
	// Source gone, target registered.
	if _, err := src.XL.Record(rec.ID); err == nil {
		t.Fatal("source record survived migration")
	}
	if src.Memory().Instances != 0 || dst.Memory().Instances != 1 {
		t.Fatalf("instance counts = %d/%d", src.Memory().Instances, dst.Memory().Instances)
	}
	// Only the pages the guest holds data in cross the wire, never more
	// than the image.
	if res.TransferBytes <= 0 || res.TransferBytes > int64(rec.Config.Pages())*mem.PageSize {
		t.Fatalf("TransferBytes = %d", res.TransferBytes)
	}
	if res.Total <= 0 {
		t.Fatalf("Total = %v", res.Total)
	}
	// The new domain's p2m maps target frames (all resolvable).
	for pfn := 0; pfn < newDom.Space().Pages(); pfn++ {
		if _, err := newDom.Space().MFNOf(mem.PFN(pfn)); err != nil {
			t.Fatalf("target p2m incomplete at pfn %d: %v", pfn, err)
		}
	}
	// The migrated guest keeps working on the target.
	if err := newDom.Space().Write(7, 0, []byte("after-move!"), nil); err != nil {
		t.Fatal(err)
	}
}

func TestMigrateRefusesFamilyMembers(t *testing.T) {
	c, src, dst := twoHosts()
	rec := bootGuest(t, src, "parent")
	child := forkOnce(t, src, rec.ID)
	// Neither the parent (live children) nor the clone may move.
	if _, err := c.Migrate(obs.OpCtx{}, 0, rec.ID, 1, ""); !errors.Is(err, cluster.ErrMigrateClone) {
		t.Fatalf("parent migration: %v", err)
	}
	if _, err := c.Migrate(obs.OpCtx{}, 0, child, 1, ""); !errors.Is(err, cluster.ErrMigrateClone) {
		t.Fatalf("clone migration: %v", err)
	}
	if dst.XL.Count() != 0 {
		t.Fatalf("%d domains on the target after refused migrations", dst.XL.Count())
	}
}

func TestMigrateToSelfRefused(t *testing.T) {
	c, p, _ := twoHosts()
	rec := bootGuest(t, p, "x")
	if _, err := c.Migrate(obs.OpCtx{}, 0, rec.ID, 0, ""); !errors.Is(err, cluster.ErrMigrateSelf) {
		t.Fatalf("self migration: %v", err)
	}
}

func TestMigrateNameCollisionOnTarget(t *testing.T) {
	c, src, dst := twoHosts()
	bootGuest(t, dst, "taken")
	rec := bootGuest(t, src, "taken")
	if _, err := c.Migrate(obs.OpCtx{}, 0, rec.ID, 1, ""); !errors.Is(err, toolstack.ErrNameTaken) {
		t.Fatalf("migration over a taken name: %v", err)
	}
	// The source survives a failed migration and is resumed; the target
	// holds only the guest that owned the name.
	dom, err := src.HV.Domain(rec.ID)
	if err != nil {
		t.Fatal("source lost after failed migration")
	}
	if dom.Paused() {
		t.Fatal("source left paused after failed migration")
	}
	if dst.XL.Count() != 1 {
		t.Fatalf("%d domains on the target after a failed migration, want 1", dst.XL.Count())
	}
	// Retry with a fresh name works.
	if _, err := c.Migrate(obs.OpCtx{}, 0, rec.ID, 1, "renamed"); err != nil {
		t.Fatal(err)
	}
}

func TestMigratedDomainCanCloneOnTarget(t *testing.T) {
	c, src, dst := twoHosts()
	rec := bootGuest(t, src, "mobile")
	res, err := c.Migrate(obs.OpCtx{}, 0, rec.ID, 1, "")
	if err != nil {
		t.Fatal(err)
	}
	moved := res.Children[0]
	child := forkOnce(t, dst, moved)
	if !dst.HV.SameFamily(moved, child) {
		t.Fatal("family relation missing on target")
	}
}
