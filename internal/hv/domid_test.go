package hv

import (
	"errors"
	"testing"

	"nephele/internal/obs"
)

// TestDomainIDsStopBelowReserved starts the ID counter three below Xen's
// DOMID_FIRST_RESERVED. A clone whose children would cross it fails as a
// whole, with no child made, the parent running and its budget refunded;
// the last three IDs are still handed out, and after them both creation
// and cloning are refused. No ID of the reserved range (mem.DomIDChild,
// mem.DomIDCOW, ...) ever names a domain, so the frame audit stays clean.
func TestDomainIDsStopBelowReserved(t *testing.T) {
	h, p := cloneReady(t, 16, 4)
	h.nextDom = domIDFirstReserved - 3
	domains := h.DomainCount()

	kids, _, _, err := cloneN(h, p.ID, p.ID, 4, nil)
	if !errors.Is(err, ErrNoDomainIDs) || len(kids) != 0 {
		t.Fatalf("clone of 4 from %#x: %v, children %v; want ErrNoDomainIDs and none", domIDFirstReserved-3, err, kids)
	}
	if p.Paused() || p.clone.made != 0 || h.nextDom != domIDFirstReserved-3 || h.DomainCount() != domains {
		t.Fatalf("refused clone moved state: paused %v, budget used %d, next ID %#x, %d domains",
			p.Paused(), p.clone.made, h.nextDom, h.DomainCount())
	}

	kids, _, _, err = cloneN(h, p.ID, p.ID, 2, nil)
	if err != nil || len(kids) != 2 || kids[1] != domIDFirstReserved-2 {
		t.Fatalf("clone of 2: %v, children %v", err, kids)
	}
	d, err := h.DomainCreate(obs.OpCtx{}, 16, 1)
	if err != nil || d.ID != domIDFirstReserved-1 {
		t.Fatalf("creating the last free ID: %v", err)
	}
	if _, err := h.DomainCreate(obs.OpCtx{}, 16, 1); !errors.Is(err, ErrNoDomainIDs) {
		t.Fatalf("creating at %#x: %v, want ErrNoDomainIDs", domIDFirstReserved, err)
	}
	if _, _, _, err := cloneN(h, p.ID, p.ID, 1, nil); !errors.Is(err, ErrNoDomainIDs) {
		t.Fatalf("cloning at %#x: %v, want ErrNoDomainIDs", domIDFirstReserved, err)
	}
	if h.DomainCount() != domains+3 || h.nextDom != domIDFirstReserved {
		t.Fatalf("%d domains, next ID %#x; want %d and %#x", h.DomainCount(), h.nextDom, domains+3, domIDFirstReserved)
	}
	if err := h.Memory.Audit(); err != nil {
		t.Fatal(err)
	}
}
