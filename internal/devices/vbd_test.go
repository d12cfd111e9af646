package devices

import (
	"bytes"
	"errors"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

// newVbdBackend builds a backend with a recognizable 8-sector base image.
func newVbdBackend(t *testing.T) *VbdBackend {
	t.Helper()
	base := make([]byte, 8*SectorSize)
	for s := 0; s < 8; s++ {
		for i := 0; i < SectorSize; i++ {
			base[s*SectorSize+i] = byte('A' + s)
		}
	}
	return NewVbdBackend(base)
}

func TestVbdReadThroughToBase(t *testing.T) {
	b := newVbdBackend(t)
	v := b.Create(obs.Ctx(vclock.NewMeter(nil)), 3, 0)
	if v.Sectors() != 8 {
		t.Fatalf("Sectors = %d", v.Sectors())
	}
	data, err := v.ReadSector(2)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != 'C' || data[SectorSize-1] != 'C' {
		t.Fatalf("sector 2 = %q...", data[:4])
	}
	if _, err := v.ReadSector(8); !errors.Is(err, ErrBadSector) {
		t.Fatalf("out-of-range read: %v", err)
	}
}

func TestVbdWriteGoesToOverlay(t *testing.T) {
	b := newVbdBackend(t)
	v := b.Create(obs.OpCtx{}, 3, 0)
	sector := bytes.Repeat([]byte{'z'}, SectorSize)
	meter := vclock.NewMeter(nil)
	if err := v.WriteSector(obs.Ctx(meter), 1, sector); err != nil {
		t.Fatal(err)
	}
	if meter.Elapsed() != meter.Costs().PageCopy {
		t.Fatal("first privatization not charged")
	}
	// Second write to the same sector: no new privatization charge.
	meter2 := vclock.NewMeter(nil)
	v.WriteSector(obs.Ctx(meter2), 1, sector)
	if meter2.Elapsed() != 0 {
		t.Fatal("re-write charged a privatization")
	}
	got, _ := v.ReadSector(1)
	if got[0] != 'z' {
		t.Fatalf("overlay read = %q", got[:4])
	}
	if v.OverlaySectors() != 1 {
		t.Fatalf("OverlaySectors = %d", v.OverlaySectors())
	}
	// The base is untouched: a second device sees the original.
	w := b.Create(obs.OpCtx{}, 4, 0)
	got, _ = w.ReadSector(1)
	if got[0] != 'B' {
		t.Fatalf("base polluted: %q", got[:4])
	}
	if err := v.WriteSector(obs.OpCtx{}, 0, []byte("short")); err == nil {
		t.Fatal("short write accepted")
	}
	if err := v.WriteSector(obs.OpCtx{}, 99, sector); !errors.Is(err, ErrBadSector) {
		t.Fatalf("out-of-range write: %v", err)
	}
}

func TestVbdCloneSnapshotSemantics(t *testing.T) {
	b := newVbdBackend(t)
	parent := b.Create(obs.OpCtx{}, 3, 0)
	dirty := bytes.Repeat([]byte{'p'}, SectorSize)
	parent.WriteSector(obs.OpCtx{}, 5, dirty)

	meter := vclock.NewMeter(nil)
	child, err := b.Clone(obs.Ctx(meter), 3, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	if child.State() != StateConnected {
		t.Fatalf("clone state = %v", child.State())
	}
	if meter.Elapsed() < meter.Costs().CloneDeviceState {
		t.Fatal("clone device state not charged")
	}
	// The child sees the parent's write as of clone time.
	got, _ := child.ReadSector(5)
	if got[0] != 'p' {
		t.Fatalf("child sector 5 = %q", got[:4])
	}
	// Divergence after the clone: block-level COW.
	parent.WriteSector(obs.OpCtx{}, 5, bytes.Repeat([]byte{'P'}, SectorSize))
	child.WriteSector(obs.OpCtx{}, 6, bytes.Repeat([]byte{'c'}, SectorSize))
	got, _ = child.ReadSector(5)
	if got[0] != 'p' {
		t.Fatal("child sees post-clone parent write")
	}
	got, _ = parent.ReadSector(6)
	if got[0] != 'G' {
		t.Fatalf("parent sees child write: %q", got[:4])
	}
	// Base still shared and pristine through both.
	pg, _ := parent.ReadSector(0)
	cg, _ := child.ReadSector(0)
	if pg[0] != 'A' || cg[0] != 'A' {
		t.Fatal("base sector corrupted")
	}
}

func TestVbdCloneMissingParent(t *testing.T) {
	b := newVbdBackend(t)
	if _, err := b.Clone(obs.OpCtx{}, 9, 10, 0); !errors.Is(err, ErrNoVbd) {
		t.Fatalf("clone of missing vbd: %v", err)
	}
}

func TestVbdRemoveClosesDevice(t *testing.T) {
	b := newVbdBackend(t)
	v := b.Create(obs.OpCtx{}, 3, 0)
	b.Remove(3, 0)
	if _, err := v.ReadSector(0); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("read after remove: %v", err)
	}
	if err := v.WriteSector(obs.OpCtx{}, 0, make([]byte, SectorSize)); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("write after remove: %v", err)
	}
	if b.Count() != 0 {
		t.Fatalf("Count = %d", b.Count())
	}
	if _, err := b.Vbd(3, 0); !errors.Is(err, ErrNoVbd) {
		t.Fatalf("lookup after remove: %v", err)
	}
}

func TestVbdBasePadding(t *testing.T) {
	b := NewVbdBackend([]byte("unaligned"))
	v := b.Create(obs.OpCtx{}, 1, 0)
	if v.Sectors() != 1 {
		t.Fatalf("Sectors = %d, want padded to 1", v.Sectors())
	}
	data, err := v.ReadSector(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(data[:9]) != "unaligned" || data[9] != 0 {
		t.Fatalf("padded sector = %q", data[:12])
	}
}

func TestVbdStats(t *testing.T) {
	b := newVbdBackend(t)
	v := b.Create(obs.OpCtx{}, 3, 0)
	v.ReadSector(0)
	v.ReadSector(1)
	v.WriteSector(obs.OpCtx{}, 0, make([]byte, SectorSize))
	r, w := v.Stats()
	if r != 2 || w != 1 {
		t.Fatalf("Stats = %d/%d", r, w)
	}
}
