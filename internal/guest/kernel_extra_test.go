package guest

import (
	"errors"
	"testing"

	"nephele/internal/core"
	"nephele/internal/netsim"
	"nephele/internal/obs"
)

func TestKernelWithoutVifErrors(t *testing.T) {
	cfg := guestCfg("no-vif")
	cfg.Vifs = nil
	_, k := testEnv(t, cfg)
	if err := k.UDPSend(netsim.IP{1, 2, 3, 4}, 1, 2, nil); !errors.Is(err, ErrNoVif) {
		t.Fatalf("UDPSend without vif: %v", err)
	}
	if _, ok := k.TryRecv(); ok {
		t.Fatal("TryRecv without vif returned a packet")
	}
	if _, err := k.GuestIP(); !errors.Is(err, ErrNoVif) {
		t.Fatalf("GuestIP without vif: %v", err)
	}
}

func TestKernelWithoutNinePErrors(t *testing.T) {
	cfg := guestCfg("no-9p")
	cfg.NinePFS = nil
	_, k := testEnv(t, cfg)
	if _, err := k.NineOpen("/x", false); err == nil {
		t.Fatal("NineOpen without mount succeeded")
	}
}

func TestAdoptKernelView(t *testing.T) {
	p, k := testEnv(t, guestCfg("adopt-parent"))
	// Clone through the platform (the Dom0/fuzzing path), then adopt the
	// clone without running its boot path.
	res, err := p.CloneOp(obs.OpCtx{}, core.CloneSpec{Caller: k.Dom, Parent: k.Dom, Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	dom, err := p.HV.Domain(res[0].Children[0])
	if err != nil {
		t.Fatal(err)
	}
	ck, err := Adopt(p, dom, FlavorUnikraft)
	if err != nil {
		t.Fatal(err)
	}
	// The adopted kernel sees the parent's memory through COW.
	addr, err := ck.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.WriteAt(obs.OpCtx{}, addr, []byte("adopted")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 7)
	ck.ReadAt(addr, buf)
	if string(buf) != "adopted" {
		t.Fatalf("adopted read %q", buf)
	}
	// No boot console banner: Adopt skips the guest boot path.
	if log := ck.ConsoleLog(); log != "" {
		t.Fatalf("adopted kernel console = %q, want empty", log)
	}
}

func TestMapIndexOutOfRange(t *testing.T) {
	_, k := testEnv(t, guestCfg("map-idx"))
	if k.Map(0) != nil {
		t.Fatal("Map(0) on kernel without maps")
	}
	if k.Map(-1) != nil {
		t.Fatal("Map(-1) returned a map")
	}
	m, _ := k.NewMap(8)
	if k.Map(0) != m {
		t.Fatal("Map(0) mismatch")
	}
}

func TestAwaitRunnableAcrossCloneCompletion(t *testing.T) {
	// The platform's clone is synchronous: once Fork returns, the pause
	// window is closed on the parent and on every child.
	p, k := testEnv(t, guestCfg("runnable"))
	res, err := k.Fork(obs.OpCtx{}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range append([]*Kernel{k}, res.Children...) {
		d, err := p.HV.Domain(g.Dom)
		if err != nil {
			t.Fatal(err)
		}
		if d.Paused() {
			t.Fatalf("domain %d still paused after Fork returned", g.Dom)
		}
	}
}
