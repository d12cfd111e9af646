package evtchn

import (
	"errors"
	"testing"

	"nephele/internal/mem"
	"nephele/internal/obs"
	"nephele/internal/vclock"
)

func newPair(t *testing.T) *Subsystem {
	t.Helper()
	s := New(64)
	s.AddDomain(1)
	s.AddDomain(2)
	return s
}

func TestAllocUnboundAndBind(t *testing.T) {
	s := newPair(t)
	up, err := s.AllocUnbound(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.State(1, up); got != StateUnbound {
		t.Fatalf("state = %v, want unbound", got)
	}
	bp, err := s.BindInterdomain(2, 1, up)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.State(1, up); got != StateInterdomain {
		t.Fatalf("state after bind = %v", got)
	}
	// Send from dom2 lands on dom1's port, and only there.
	if err := s.Send(2, bp); err != nil {
		t.Fatal(err)
	}
	if s.Pending(2, bp) {
		t.Fatal("send raised the sender's own port")
	}
	if !s.Pending(1, up) {
		t.Fatal("pending bit not set")
	}
	if s.Pending(1, up) {
		t.Fatal("pending bit not cleared by read")
	}
}

func TestBindToConnectedPortFails(t *testing.T) {
	s := newPair(t)
	up, _ := s.AllocUnbound(1, 2)
	if _, err := s.BindInterdomain(2, 1, up); err != nil {
		t.Fatal(err)
	}
	if _, err := s.BindInterdomain(2, 1, up); !errors.Is(err, ErrBadState) {
		t.Fatalf("double bind: %v, want ErrBadState", err)
	}
}

func TestSendUnboundIsDropped(t *testing.T) {
	s := newPair(t)
	up, _ := s.AllocUnbound(1, 2)
	if err := s.Send(1, up); err != nil {
		t.Fatalf("send on unbound should drop, got %v", err)
	}
}

func TestSendBadPort(t *testing.T) {
	s := newPair(t)
	if err := s.Send(1, 99); !errors.Is(err, ErrBadPort) {
		t.Fatalf("send bad port: %v", err)
	}
	if err := s.Send(7, 1); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("send from unknown dom: %v", err)
	}
}

func TestVIRQ(t *testing.T) {
	s := newPair(t)
	pa, err := s.BindVIRQ(1, VIRQCloned)
	if err != nil {
		t.Fatal(err)
	}
	meter := vclock.NewMeter(nil)
	s.RaiseVIRQ(obs.Ctx(meter), VIRQCloned)
	if !s.Pending(1, pa) {
		t.Fatalf("virq did not raise port %d", pa)
	}
	if s.PortCount(2) != 0 || s.Pending(2, pa) {
		t.Fatal("virq raised on unbound domain")
	}
	if meter.Elapsed() != meter.Costs().VIRQDeliver {
		t.Fatalf("charged %v, want one VIRQDeliver", meter.Elapsed())
	}
}

func TestClose(t *testing.T) {
	s := newPair(t)
	up, _ := s.AllocUnbound(1, 2)
	bp, _ := s.BindInterdomain(2, 1, up)
	if err := s.Close(1, up); err != nil {
		t.Fatal(err)
	}
	if got := s.State(1, up); got != StateFree {
		t.Fatalf("state after close = %v", got)
	}
	// Peer end reverts to unbound, like Xen.
	if got := s.State(2, bp); got != StateUnbound {
		t.Fatalf("peer state after close = %v", got)
	}
}

func TestChildWildcardLifecycle(t *testing.T) {
	// Parent allocates an IDC endpoint with DOMID_CHILD before any clone
	// exists; sends are dropped; after CloneDomain the child is bound and
	// notifications flow both ways.
	s := New(64)
	s.AddDomain(1)
	wp, err := s.AllocUnbound(1, mem.DomIDChild)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.State(1, wp); got != StateChildWildcard {
		t.Fatalf("state = %v, want child-wildcard", got)
	}
	if err := s.Send(1, wp); err != nil {
		t.Fatalf("send before clone: %v", err)
	}

	s.AddDomain(5)
	st, err := s.CloneDomain(obs.OpCtx{}, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.IDCBound != 1 {
		t.Fatalf("IDCBound = %d, want 1", st.IDCBound)
	}
	// Parent -> child.
	if err := s.SendToChild(1, wp, 5); err != nil {
		t.Fatal(err)
	}
	if !s.Pending(5, wp) || s.Pending(1, wp) {
		t.Fatalf("parent->child send did not raise only child port %d", wp)
	}
	// Child -> parent: the child's cloned endpoint is a real
	// interdomain channel back to the parent.
	if err := s.NotifyParent(5, wp); err != nil {
		t.Fatal(err)
	}
	if !s.Pending(1, wp) || s.Pending(5, wp) {
		t.Fatalf("child->parent notify did not raise only parent port %d", wp)
	}
}

func TestCloneDomainReplicatesVIRQAndDeviceChannels(t *testing.T) {
	s := New(64)
	s.AddDomain(0) // dom0 backend
	s.AddDomain(1)
	// A device channel to dom0 and a VIRQ binding.
	up, _ := s.AllocUnbound(0, 1)
	devPort, err := s.BindInterdomain(1, 0, up)
	if err != nil {
		t.Fatal(err)
	}
	virqPort, _ := s.BindVIRQ(1, VIRQ(3))

	s.AddDomain(9)
	meter := vclock.NewMeter(nil)
	st, err := s.CloneDomain(obs.Ctx(meter), 1, 9)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cloned != 2 {
		t.Fatalf("Cloned = %d, want 2", st.Cloned)
	}
	// Device channel is recreated unbound in the child: the device
	// cloning path reconnects it.
	if got := s.State(9, devPort); got != StateUnbound {
		t.Fatalf("child device port = %v, want unbound", got)
	}
	if got := s.State(9, virqPort); got != StateVIRQ {
		t.Fatalf("child virq port = %v, want virq", got)
	}
	if meter.Elapsed() != 2*meter.Costs().EvtchnClone {
		t.Fatalf("charged %v, want 2 EvtchnClone", meter.Elapsed())
	}
}

func TestRemoveDomainResetsPeers(t *testing.T) {
	s := newPair(t)
	up, _ := s.AllocUnbound(1, 2)
	bp, _ := s.BindInterdomain(2, 1, up)
	s.RemoveDomain(2)
	if got := s.State(1, up); got != StateUnbound {
		t.Fatalf("surviving peer state = %v, want unbound", got)
	}
	if err := s.Send(2, bp); !errors.Is(err, ErrNoSuchDom) {
		t.Fatalf("send from removed dom: %v", err)
	}
}

func TestPortExhaustion(t *testing.T) {
	s := New(4) // ports 1..3 usable
	s.AddDomain(1)
	for i := 0; i < 3; i++ {
		if _, err := s.AllocUnbound(1, 2); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := s.AllocUnbound(1, 2); !errors.Is(err, ErrPortsFull) {
		t.Fatalf("alloc beyond table: %v, want ErrPortsFull", err)
	}
}

func TestPortCount(t *testing.T) {
	s := newPair(t)
	s.AllocUnbound(1, 2)
	s.BindVIRQ(1, VIRQ(2))
	if got := s.PortCount(1); got != 2 {
		t.Fatalf("PortCount = %d, want 2", got)
	}
	if got := s.PortCount(42); got != 0 {
		t.Fatalf("PortCount(unknown) = %d, want 0", got)
	}
}

func TestStateString(t *testing.T) {
	for _, st := range []State{StateFree, StateUnbound, StateInterdomain, StateVIRQ, StateChildWildcard, State(200)} {
		if st.String() == "" {
			t.Errorf("State(%d) empty string", st)
		}
	}
}
