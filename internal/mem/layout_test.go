package mem

import (
	"testing"
	"unsafe"
)

// TestTableLayouts pins the size of the two per-page tables to what they
// model (DESIGN.md §10, "Table layouts"): an entry is one 64-bit word, a
// frame 16 bytes of state and one pointer. A field that widens either shows
// here, not in the benchmark's host_live_mb.
func TestTableLayouts(t *testing.T) {
	if got := unsafe.Sizeof(pte(0)); got != 8 {
		t.Errorf("a pte is %d bytes, want 8", got)
	}
	if got, want := unsafe.Sizeof(frame{}), 16+unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("a frame is %d bytes, want %d", got, want)
	}
}

var allPTEFlags = [...]pte{ptePresent, pteWritable, pteCOW, pteLazy}

// flagsOf returns the union of allPTEFlags selected by the low bits of set.
func flagsOf(set int) pte {
	var flags pte
	for b, f := range allPTEFlags {
		if set&(1<<b) != 0 {
			flags |= f
		}
	}
	return flags
}

// TestPTEPacksEveryField packs every combination of the four flags, every
// kind and the MFNs at the edges of the field — the first two, the last of a
// pool and the last the field holds — and reads the same fields back.
func TestPTEPacksEveryField(t *testing.T) {
	last := MFN(newTestMem(1<<20).TotalFrames() - 1)
	for _, mfn := range []MFN{0, 1, last, MFN(pteMFNMask)} {
		for kind := KindRegular; kind <= KindIDC; kind++ {
			for set := 0; set < 1<<len(allPTEFlags); set++ {
				p := makePTE(mfn, flagsOf(set), kind)
				got := [...]bool{p.present(), p.writable(), p.cow(), p.lazy()}
				for b := range got {
					if want := set&(1<<b) != 0; got[b] != want {
						t.Fatalf("mfn %#x kind %v flags %04b: flag %d reads %t", mfn, kind, set, b, got[b])
					}
				}
				if p.mfn() != mfn || p.kind() != kind {
					t.Fatalf("mfn %#x kind %v flags %04b: read back mfn %#x kind %v", mfn, kind, set, p.mfn(), p.kind())
				}
			}
		}
	}
}

// TestPTEUpdatesLeaveTheRestAlone: a flag bit lies outside the MFN and kind
// fields, so setting or clearing it touches neither, and withMFN and withKind
// replace their own field and nothing else, whatever the others hold.
func TestPTEUpdatesLeaveTheRestAlone(t *testing.T) {
	for _, f := range allPTEFlags {
		if f&(pteMFNMask|pteKindMask) != 0 {
			t.Fatalf("flag %#x overlaps the MFN or kind field", f)
		}
	}
	for _, mfn := range []MFN{0, 12345, MFN(pteMFNMask)} {
		for set := 0; set < 1<<len(allPTEFlags); set++ {
			base := makePTE(mfn, flagsOf(set), KindIORing)
			for _, f := range allPTEFlags {
				for _, p := range []pte{base | f, base &^ f} {
					if p.mfn() != mfn || p.kind() != KindIORing || (p^base)&^f != 0 {
						t.Fatalf("flag %#x on %#x gave %#x", f, base, p)
					}
				}
			}
			if p := base.withMFN(77); p.mfn() != 77 || p&^pteMFNMask != base&^pteMFNMask {
				t.Fatalf("withMFN on %#x gave %#x", base, p)
			}
			if p := base.withKind(KindIDC); p.kind() != KindIDC || p&^pteKindMask != base&^pteKindMask {
				t.Fatalf("withKind on %#x gave %#x", base, p)
			}
		}
	}
}
