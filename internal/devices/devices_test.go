package devices

import (
	"errors"
	"strings"
	"testing"

	"nephele/internal/netsim"
	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

func TestXenbusStateString(t *testing.T) {
	for s := StateUnknown; s <= StateClosed; s++ {
		if s.String() == "" {
			t.Errorf("state %d has empty string", int(s))
		}
	}
	if XenbusState(99).String() == "" {
		t.Error("unknown state has empty string")
	}
}

func TestDevicePaths(t *testing.T) {
	if got := FrontendPath(3, "vif", 0); got != "/local/domain/3/device/vif/0" {
		t.Fatalf("FrontendPath = %q", got)
	}
	if got := BackendPath(3, "vif", 0); got != "/local/domain/0/backend/vif/3/0" {
		t.Fatalf("BackendPath = %q", got)
	}
	if got := FrontendDir(3, "vif"); got != "/local/domain/3/device/vif" {
		t.Fatalf("FrontendDir = %q", got)
	}
	if got := BackendDir(3, "vif"); got != "/local/domain/0/backend/vif/3" {
		t.Fatalf("BackendDir = %q", got)
	}
}

func TestWriteDevicePairNegotiatesToConnected(t *testing.T) {
	store := xenstore.New(0)
	meter := vclock.NewMeter(nil)
	if err := WriteDevicePair(store, 3, "vif", 0, []Entry{{Key: "mac", Value: "00:16:3e:00:00:03"}}, meter); err != nil {
		t.Fatal(err)
	}
	st, err := DeviceState(store, 3, "vif", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st != StateConnected {
		t.Fatalf("state after negotiation = %v, want Connected", st)
	}
	// The negotiation cost was charged once.
	if meter.Elapsed() < meter.Costs().DeviceNegotiate {
		t.Fatal("DeviceNegotiate not charged")
	}
	// A boot writes many store entries (the Fig. 4 cost driver).
	if store.Stats().Writes < 10 {
		t.Fatalf("device boot issued only %d writes", store.Stats().Writes)
	}
}

func TestUdevQueue(t *testing.T) {
	q := NewUdevQueue()
	meter := vclock.NewMeter(nil)
	q.Emit(UdevEvent{Action: UdevAdd, Kind: "vif", DomID: 3, Index: 0}, meter)
	ev, ok := q.TryRecv()
	if !ok || ev.DomID != 3 || ev.Action != UdevAdd {
		t.Fatalf("TryRecv = %+v, %v", ev, ok)
	}
	if _, ok := q.TryRecv(); ok {
		t.Fatal("empty queue returned an event")
	}
	if meter.Elapsed() != meter.Costs().UdevEvent {
		t.Fatal("udev cost not charged")
	}
}

func TestConsoleBackendCreateWriteLog(t *testing.T) {
	c := NewConsoleBackend()
	c.Create(3, nil)
	if !c.Has(3) {
		t.Fatal("console missing after Create")
	}
	c.Create(3, nil) // idempotent
	if err := c.GuestWrite(3, "hello from guest\n"); err != nil {
		t.Fatal(err)
	}
	if got := c.Log(3); !strings.Contains(got, "hello from guest") {
		t.Fatalf("log = %q", got)
	}
	if err := c.GuestWrite(9, "x"); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("write to missing console: %v", err)
	}
}

func TestConsoleCloneStartsEmpty(t *testing.T) {
	c := NewConsoleBackend()
	c.Create(3, nil)
	c.GuestWrite(3, "parent output")
	c.Clone(3, 7, nil)
	if got := c.Log(7); got != "" {
		t.Fatalf("child console log = %q, want empty (§4.2)", got)
	}
	c.GuestWrite(7, "child output")
	if got := c.Log(7); got != "child output" {
		t.Fatalf("child log = %q", got)
	}
	if got := c.Log(3); got != "parent output" {
		t.Fatalf("parent log polluted: %q", got)
	}
	c.Remove(7)
	if c.Has(7) {
		t.Fatal("console present after Remove")
	}
	if c.Log(7) != "" {
		t.Fatal("removed console has log")
	}
}

func TestVifSendReceive(t *testing.T) {
	udev := NewUdevQueue()
	nb := NewNetBackend(udev)
	v := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	if ev, ok := udev.TryRecv(); !ok || ev.Action != UdevAdd {
		t.Fatal("CreateVif did not emit udev add")
	}
	var sent []netsim.Packet
	v.SetEgress(func(p netsim.Packet) { sent = append(sent, p) })
	p := netsim.Packet{
		DstMAC: netsim.MAC{1}, SrcIP: v.IP, DstIP: netsim.IP{10, 0, 0, 1},
		SrcPort: 5000, DstPort: 53, Proto: netsim.ProtoUDP, Payload: []byte("query"),
	}
	if err := v.GuestSend(p); err != nil {
		t.Fatal(err)
	}
	if len(sent) != 1 {
		t.Fatalf("egress got %d packets", len(sent))
	}
	if sent[0].SrcMAC != v.MAC {
		t.Fatal("backend did not stamp the vif MAC")
	}
	if string(sent[0].Payload) != "query" {
		t.Fatalf("payload = %q", sent[0].Payload)
	}

	// Ingress.
	notified := 0
	v.SetRXNotify(func() { notified++ })
	v.Deliver(netsim.Packet{SrcPort: 53, DstPort: 5000, Payload: []byte("answer")})
	if notified != 1 {
		t.Fatal("RX notify not fired")
	}
	got, ok := v.GuestReceive()
	if !ok || string(got.Payload) != "answer" {
		t.Fatalf("GuestReceive = %+v, %v", got, ok)
	}
	if _, ok := v.GuestReceive(); ok {
		t.Fatal("empty RX returned a packet")
	}
}

func TestVifPacketMarshalRoundTrip(t *testing.T) {
	p := netsim.Packet{
		SrcMAC: netsim.MAC{1, 2, 3, 4, 5, 6}, DstMAC: netsim.MAC{7, 8, 9, 10, 11, 12},
		SrcIP: netsim.IP{10, 0, 0, 1}, DstIP: netsim.IP{10, 0, 0, 2},
		SrcPort: 0xABCD, DstPort: 80, Proto: netsim.ProtoTCP, Payload: []byte("data"),
	}
	q := unmarshalPacket(marshalPacket(p))
	if q.SrcMAC != p.SrcMAC || q.DstMAC != p.DstMAC || q.SrcIP != p.SrcIP || q.DstIP != p.DstIP ||
		q.SrcPort != p.SrcPort || q.DstPort != p.DstPort || q.Proto != p.Proto || string(q.Payload) != "data" {
		t.Fatalf("round trip: %+v != %+v", q, p)
	}
	// Truncated buffer does not panic.
	_ = unmarshalPacket([]byte{1, 2, 3})
}

func TestVifCloneIdentityAndState(t *testing.T) {
	nb := NewNetBackend(NewUdevQueue())
	pv := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	// In-flight RX packet at clone time.
	pv.Deliver(netsim.Packet{SrcPort: 1, Payload: []byte("inflight")})

	meter := vclock.NewMeter(nil)
	cv, err := nb.CloneVif(3, 7, 0, meter)
	if err != nil {
		t.Fatal(err)
	}
	if cv.MAC != pv.MAC {
		t.Fatal("clone MAC differs (must be identical, §5.2.1)")
	}
	if cv.IP != pv.IP {
		t.Fatal("clone IP differs")
	}
	if cv.State() != StateConnected {
		t.Fatalf("clone state = %v, want Connected without negotiation", cv.State())
	}
	// RX ring copied: the child sees the in-flight packet too.
	got, ok := cv.GuestReceive()
	if !ok || string(got.Payload) != "inflight" {
		t.Fatalf("child RX = %+v, %v", got, ok)
	}
	// And the parent still has its own copy.
	got, ok = pv.GuestReceive()
	if !ok || string(got.Payload) != "inflight" {
		t.Fatalf("parent RX = %+v, %v", got, ok)
	}
	// Ring copy cost: 264 page copies (256 RX + 8 TX).
	wantPages := RXRingPages + TXRingPages
	if meter.Elapsed() < meter.Costs().PageCopy*vclock.Duration(wantPages) {
		t.Fatalf("ring copy charged %v, want at least %d page copies", meter.Elapsed(), wantPages)
	}
	if pv.PrivatePages() != wantPages {
		t.Fatalf("PrivatePages = %d, want %d", pv.PrivatePages(), wantPages)
	}
}

func TestVifCloneMissingParent(t *testing.T) {
	nb := NewNetBackend(NewUdevQueue())
	if _, err := nb.CloneVif(99, 7, 0, nil); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("clone of missing vif: %v", err)
	}
}

func TestVifClosedRefusesTraffic(t *testing.T) {
	nb := NewNetBackend(NewUdevQueue())
	v := nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	nb.RemoveVif(3, 0, nil)
	if err := v.GuestSend(netsim.Packet{}); !errors.Is(err, ErrNotConnected) {
		t.Fatalf("send on closed vif: %v", err)
	}
	v.Deliver(netsim.Packet{}) // dropped silently
	if v.RXBacklog() != 0 {
		t.Fatal("closed vif queued ingress")
	}
	if nb.Count() != 0 {
		t.Fatalf("Count = %d after remove", nb.Count())
	}
}

func TestNetBackendLookup(t *testing.T) {
	nb := NewNetBackend(nil)
	nb.CreateVif(3, 0, netsim.IP{10, 0, 0, 3}, nil)
	if _, err := nb.Vif(3, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := nb.Vif(3, 1); !errors.Is(err, ErrNoDevice) {
		t.Fatalf("lookup missing vif: %v", err)
	}
}
