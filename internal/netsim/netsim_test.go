package netsim

import (
	"testing"
	"testing/quick"
)

// sink is a test endpoint counting deliveries.
type sink struct {
	mac MAC
	got []Packet
}

func newSink(last byte) *sink { return &sink{mac: MAC{0, 0x16, 0x3e, 0, 0, last}} }

func (s *sink) HWAddr() MAC { return s.mac }
func (s *sink) Deliver(p Packet) {
	s.got = append(s.got, p)
}
func (s *sink) count() int {
	return len(s.got)
}

func TestFlowHashStableAndSpreads(t *testing.T) {
	p := Packet{SrcIP: IP{10, 0, 0, 1}, DstIP: IP{10, 0, 0, 2}, SrcPort: 1234, DstPort: 80}
	if FlowHash(p) != FlowHash(p) {
		t.Fatal("FlowHash not deterministic")
	}
	// Distinct ports must spread over 4 slaves reasonably well.
	counts := make([]int, 4)
	for port := uint16(1000); port < 1256; port++ {
		q := p
		q.SrcPort = port
		counts[FlowHash(q)%4]++
	}
	for i, c := range counts {
		if c == 0 {
			t.Fatalf("slave %d never selected across 256 flows: %v", i, counts)
		}
	}
}

func TestBondXORPolicy(t *testing.T) {
	b := NewBond("bond0")
	s1, s2 := newSink(1), newSink(2)
	b.Enslave(s1)
	b.Enslave(s2)
	if b.Slaves() != 2 {
		t.Fatalf("Slaves = %d", b.Slaves())
	}
	// Same flow always lands on the same slave.
	p := Packet{SrcIP: IP{10, 0, 0, 1}, DstIP: IP{10, 0, 0, 2}, SrcPort: 5000, DstPort: 80}
	want, err := b.SlaveFor(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		b.Deliver(p)
	}
	slaves := []*sink{s1, s2}
	if got := slaves[want].count(); got != 10 {
		t.Fatalf("selected slave received %d packets, want 10", got)
	}
	if got := slaves[1-want].count(); got != 0 {
		t.Fatalf("other slave received %d packets, want 0", got)
	}
}

func TestBondNoSlaves(t *testing.T) {
	b := NewBond("bond0")
	if _, err := b.SlaveFor(Packet{}); err != ErrNoSlaves {
		t.Fatalf("SlaveFor empty bond: %v", err)
	}
	b.Deliver(Packet{}) // must not panic
}

func TestBondRelease(t *testing.T) {
	b := NewBond("bond0")
	s1, s2 := newSink(1), newSink(2)
	b.Enslave(s1)
	b.Enslave(s2)
	b.Release(s1)
	if b.Slaves() != 1 {
		t.Fatalf("Slaves after release = %d", b.Slaves())
	}
	b.Deliver(Packet{SrcPort: 1})
	if s2.count() != 1 {
		t.Fatal("remaining slave did not receive")
	}
}

func TestBondIdentity(t *testing.T) {
	b := NewBond("bond0")
	if b.HWAddr() != (MAC{}) {
		t.Fatal("empty bond has a MAC")
	}
	s1 := newSink(7)
	b.Enslave(s1)
	if b.HWAddr() != s1.mac {
		t.Fatal("bond identity != first slave MAC")
	}
}

func TestUniqueFlowTuplesAvoidCollisions(t *testing.T) {
	// The paper's Fig. 4 methodology: assign a unique port per clone so
	// no two <address, port> tuples map to the same slave. Verify such
	// an assignment exists for small slave counts.
	b := NewBond("bond0")
	sinks := make([]*sink, 4)
	for i := range sinks {
		sinks[i] = newSink(byte(i))
		b.Enslave(sinks[i])
	}
	assigned := map[int]uint16{}
	base := Packet{SrcIP: IP{10, 0, 0, 1}, DstIP: IP{10, 0, 0, 2}, DstPort: 7}
	for port := uint16(9000); port < 9999 && len(assigned) < 4; port++ {
		p := base
		p.SrcPort = port
		idx, _ := b.SlaveFor(p)
		if _, taken := assigned[idx]; !taken {
			assigned[idx] = port
		}
	}
	if len(assigned) != 4 {
		t.Fatalf("could not find collision-free ports for 4 slaves: %v", assigned)
	}
}

func TestHostEndpoint(t *testing.T) {
	h := NewHost(MAC{1}, IP{192, 168, 0, 1})
	if h.HWAddr() != (MAC{1}) || h.IPAddr() != (IP{192, 168, 0, 1}) {
		t.Fatal("identity wrong")
	}
	h.Deliver(Packet{SrcPort: 9})
	got := h.Received()
	if len(got) != 1 || got[0].SrcPort != 9 {
		t.Fatalf("Received = %v", got)
	}
	if len(h.Received()) != 0 {
		t.Fatal("Received did not drain")
	}
}

func TestMACForDomain(t *testing.T) {
	m := MACForDomain(0x010203)
	want := MAC{0x00, 0x16, 0x3e, 0x01, 0x02, 0x03}
	if m != want {
		t.Fatalf("MACForDomain = %v, want %v", m, want)
	}
	if m.String() != "00:16:3e:01:02:03" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestIPString(t *testing.T) {
	if (IP{10, 1, 2, 3}).String() != "10.1.2.3" {
		t.Fatal("IP.String wrong")
	}
}

func TestFlowHashDistributionProperty(t *testing.T) {
	// Property: FlowHash depends only on the 3+4 tuple, never on MACs or
	// payload.
	f := func(sip, dip [4]byte, sp, dp uint16, mac1, mac2 [6]byte, payload []byte) bool {
		a := Packet{SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp}
		b := a
		b.SrcMAC, b.DstMAC, b.Payload = mac1, mac2, payload
		return FlowHash(a) == FlowHash(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
