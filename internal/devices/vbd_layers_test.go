package devices

import (
	"bytes"
	"testing"

	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func sectorOf(b byte) []byte { return bytes.Repeat([]byte{b}, SectorSize) }

// Clone must freeze the parent's dirty sectors into an immutable layer both
// sides share by pointer, not copy them per child.
func TestVbdCloneSharesFrozenLayers(t *testing.T) {
	b := newVbdBackend(t)
	p := b.Create(obs.OpCtx{}, 1, 0)
	for s := uint64(0); s < 4; s++ {
		if err := p.WriteSector(obs.OpCtx{}, s, sectorOf('p')); err != nil {
			t.Fatal(err)
		}
	}
	meter := vclock.NewMeter(nil)
	c1, err := b.Clone(obs.Ctx(meter), 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// O(1) clone: only the device-state clone is charged, no per-sector copy.
	if meter.Elapsed() != meter.Costs().CloneDeviceState {
		t.Fatalf("clone charged %v, want CloneDeviceState only", meter.Elapsed())
	}
	c2, err := b.Clone(obs.OpCtx{}, 1, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Layers() != 1 || c1.Layers() != 1 || c2.Layers() != 1 {
		t.Fatalf("layers = %d/%d/%d, want 1/1/1", p.Layers(), c1.Layers(), c2.Layers())
	}
	// The layer is shared by pointer across all three views.
	if p.frozen[0] != c1.frozen[0] || c1.frozen[0] != c2.frozen[0] {
		t.Fatal("frozen layer not shared by pointer")
	}
	for _, v := range []*Vbd{p, c1, c2} {
		got, err := v.ReadSector(2)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != 'p' {
			t.Fatalf("dom %d sector 2 = %q", v.DomID, got[:2])
		}
	}
}

// Writes after the clone diverge privately; the frozen layer never changes.
func TestVbdCloneDivergence(t *testing.T) {
	b := newVbdBackend(t)
	p := b.Create(obs.OpCtx{}, 1, 0)
	p.WriteSector(obs.OpCtx{}, 5, sectorOf('p'))
	c, err := b.Clone(obs.OpCtx{}, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WriteSector(obs.OpCtx{}, 5, sectorOf('c')); err != nil {
		t.Fatal(err)
	}
	p.WriteSector(obs.OpCtx{}, 6, sectorOf('q'))

	pg, _ := p.ReadSector(5)
	cg, _ := c.ReadSector(5)
	if pg[0] != 'p' || cg[0] != 'c' {
		t.Fatalf("divergence: parent %q child %q", pg[:2], cg[:2])
	}
	// The child never sees the parent's post-clone write.
	cg6, _ := c.ReadSector(6)
	if cg6[0] != 'G' {
		t.Fatalf("child sector 6 = %q, want base 'G'", cg6[:2])
	}
	// Re-dirtying a frozen sector charges a privatization again (the dirty
	// map is fresh), but an immediate re-write does not.
	m1 := vclock.NewMeter(nil)
	c.WriteSector(obs.Ctx(m1), 5, sectorOf('d'))
	if m1.Elapsed() != 0 {
		t.Fatal("re-write of an already-overlaid sector charged")
	}
}

// A grandchild chains layers: clone of a clone stacks a second frozen layer.
func TestVbdCloneChainDepth(t *testing.T) {
	b := newVbdBackend(t)
	p := b.Create(obs.OpCtx{}, 1, 0)
	p.WriteSector(obs.OpCtx{}, 0, sectorOf('1'))
	c, err := b.Clone(obs.OpCtx{}, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.WriteSector(obs.OpCtx{}, 1, sectorOf('2'))
	g, err := b.Clone(obs.OpCtx{}, 2, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.Layers() != 2 {
		t.Fatalf("grandchild layers = %d, want 2", g.Layers())
	}
	g0, _ := g.ReadSector(0)
	g1, _ := g.ReadSector(1)
	if g0[0] != '1' || g1[0] != '2' {
		t.Fatalf("grandchild chain resolution: %q %q", g0[:2], g1[:2])
	}
	// Newest layer wins over older ones.
	c.WriteSector(obs.OpCtx{}, 0, sectorOf('3'))
	g2, err := b.Clone(obs.OpCtx{}, 2, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := g2.ReadSector(0)
	if got[0] != '3' {
		t.Fatalf("newest-layer-wins: %q", got[:2])
	}
	// Cloning a parent with an empty dirty map adds no layer.
	g3, err := b.Clone(obs.OpCtx{}, 3, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g3.Layers() != g.Layers() {
		t.Fatalf("empty-dirty clone grew the chain: %d != %d", g3.Layers(), g.Layers())
	}
}

// Modified flattens the chain newest-first in ascending sector order — the
// commit path a sandbox manager uses to write dirty blocks back out.
func TestVbdModifiedFlattensChain(t *testing.T) {
	b := newVbdBackend(t)
	p := b.Create(obs.OpCtx{}, 1, 0)
	p.WriteSector(obs.OpCtx{}, 4, sectorOf('a'))
	p.WriteSector(obs.OpCtx{}, 2, sectorOf('b'))
	c, err := b.Clone(obs.OpCtx{}, 1, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.WriteSector(obs.OpCtx{}, 2, sectorOf('c')) // shadows the frozen 'b'
	c.WriteSector(obs.OpCtx{}, 7, sectorOf('d'))

	sectors, data := c.Modified()
	if len(sectors) != 3 {
		t.Fatalf("modified sectors = %v", sectors)
	}
	want := map[uint64]byte{2: 'c', 4: 'a', 7: 'd'}
	var prev uint64
	for i, s := range sectors {
		if i > 0 && s <= prev {
			t.Fatalf("sectors not ascending: %v", sectors)
		}
		prev = s
		if data[i][0] != want[s] {
			t.Fatalf("sector %d = %q, want %q", s, data[i][:1], want[s])
		}
	}
	if c.OverlaySectors() != 3 {
		t.Fatalf("OverlaySectors = %d, want 3", c.OverlaySectors())
	}
}

// Two backends over the same base image share every interned chunk; a
// backend over a half-identical image shares the identical half.
func TestVbdBaseStoreDedup(t *testing.T) {
	base := make([]byte, 2*BaseChunkSectors*SectorSize)
	for i := range base {
		base[i] = byte(i % 251)
	}
	store := NewBaseStore()
	NewVbdBackendShared(base, store)
	chunks, bytes0, _ := store.Stats()
	if chunks != 2 {
		t.Fatalf("chunks = %d, want 2", chunks)
	}
	NewVbdBackendShared(base, store)
	chunks2, bytes2, reused := store.Stats()
	if chunks2 != 2 || bytes2 != bytes0 {
		t.Fatalf("identical image grew the store: %d chunks, %d bytes", chunks2, bytes2)
	}
	if reused != 2 {
		t.Fatalf("reused = %d, want 2", reused)
	}
	// Second image differs only in its first chunk.
	base2 := append([]byte(nil), base...)
	base2[0] ^= 0xff
	b3 := NewVbdBackendShared(base2, store)
	chunks3, _, _ := store.Stats()
	if chunks3 != 3 {
		t.Fatalf("half-identical image: %d chunks, want 3", chunks3)
	}
	// The divergent backend still reads its own bytes.
	v := b3.Create(obs.OpCtx{}, 9, 0)
	got, err := v.ReadSector(0)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != base2[0] {
		t.Fatalf("divergent chunk read %x, want %x", got[0], base2[0])
	}
	gotTail, _ := v.ReadSector(uint64(BaseChunkSectors))
	if gotTail[0] != base[BaseChunkSectors*SectorSize] {
		t.Fatal("shared chunk read wrong bytes")
	}
}

// The final partial chunk is zero-padded and reads back as zeroes past the
// image tail within the padded sector range.
func TestVbdBaseStorePartialChunk(t *testing.T) {
	base := make([]byte, 3*SectorSize) // far short of one chunk
	for i := range base {
		base[i] = 'x'
	}
	b := NewVbdBackendShared(base, NewBaseStore())
	v := b.Create(obs.OpCtx{}, 1, 0)
	if v.Sectors() != 3 {
		t.Fatalf("Sectors = %d", v.Sectors())
	}
	got, err := v.ReadSector(2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 'x' {
		t.Fatalf("tail sector = %q", got[:2])
	}
}

// TestBaseStoreZeroChunkPinned pins the intern hash of an all-zero chunk by
// value, the chunk every sparse base image is mostly made of.
func TestBaseStoreZeroChunkPinned(t *testing.T) {
	h := NewBaseStore().intern(make([]byte, BaseChunkSectors*SectorSize))
	if h != 0xeb05052ea5b62325 {
		t.Fatalf("intern = %#x, want 0xeb05052ea5b62325", h)
	}
}
