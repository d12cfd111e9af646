package evtchn

import (
	"errors"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func TestPeer(t *testing.T) {
	s := New(16)
	s.AddDomain(1)
	s.AddDomain(2)
	up, _ := s.AllocUnbound(1, 2)
	bp, _ := s.BindInterdomain(2, 1, up)
	dom, port, err := s.Peer(2, bp)
	if err != nil {
		t.Fatal(err)
	}
	if dom != 1 || port != up {
		t.Fatalf("Peer = (%d, %d), want (1, %d)", dom, port, up)
	}
	// Errors: unbound port, bad port, unknown domain.
	free, _ := s.AllocUnbound(1, 2)
	if _, _, err := s.Peer(1, free); !errors.Is(err, ErrBadState) {
		t.Fatalf("Peer on unbound: %v", err)
	}
	if _, _, err := s.Peer(1, 99); !errors.Is(err, ErrBadPort) {
		t.Fatalf("Peer bad port: %v", err)
	}
	if _, _, err := s.Peer(42, 1); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("Peer unknown dom: %v", err)
	}
}

func TestSendToChildErrors(t *testing.T) {
	s := New(16)
	s.AddDomain(1)
	s.AddDomain(5)
	wp, _ := s.AllocUnbound(1, mem.DomIDChild)
	// Wrong state: a non-wildcard port.
	np, _ := s.AllocUnbound(1, 2)
	if err := s.SendToChild(1, np, 5); !errors.Is(err, ErrBadState) {
		t.Fatalf("SendToChild on non-wildcard: %v", err)
	}
	if err := s.SendToChild(1, 99, 5); !errors.Is(err, ErrBadPort) {
		t.Fatalf("SendToChild bad port: %v", err)
	}
	if err := s.SendToChild(42, wp, 5); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("SendToChild unknown dom: %v", err)
	}
	// Valid delivery to a child sets its pending bit.
	s.CloneDomain(obs.OpCtx{}, 1, 5)
	if err := s.SendToChild(1, wp, 5); err != nil {
		t.Fatal(err)
	}
	if !s.Pending(5, wp) {
		t.Fatal("pending not set on child")
	}
}

func TestNotifyParentErrors(t *testing.T) {
	s := New(16)
	s.AddDomain(1)
	s.AddDomain(5)
	if err := s.NotifyParent(42, 1); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("NotifyParent unknown dom: %v", err)
	}
	if err := s.NotifyParent(5, 99); !errors.Is(err, ErrBadPort) {
		t.Fatalf("NotifyParent bad port: %v", err)
	}
	up, _ := s.AllocUnbound(5, 1)
	if err := s.NotifyParent(5, up); !errors.Is(err, ErrBadState) {
		t.Fatalf("NotifyParent on unbound: %v", err)
	}
}

func TestCloseVIRQUnregisters(t *testing.T) {
	s := New(16)
	s.AddDomain(1)
	p, _ := s.BindVIRQ(1, VIRQCloned)
	if err := s.Close(1, p); err != nil {
		t.Fatal(err)
	}
	meter := vclock.NewMeter(nil)
	s.RaiseVIRQ(obs.Ctx(meter), VIRQCloned)
	if s.Pending(1, p) || meter.Elapsed() != 0 {
		t.Fatal("closed VIRQ port still raised")
	}
}

func TestCloseErrors(t *testing.T) {
	s := New(16)
	s.AddDomain(1)
	if err := s.Close(1, 0); !errors.Is(err, ErrBadPort) {
		t.Fatalf("close port 0: %v", err)
	}
	if err := s.Close(9, 1); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("close on unknown dom: %v", err)
	}
}
