// Package netsim simulates the Dom0 networking substrate: Ethernet-ish
// frames, a learning bridge, the Linux bonding driver in balance-xor mode
// with the layer3+4 transmit hash policy, and Open vSwitch select groups.
// Nephele uses these switches to aggregate clone interfaces that carry
// identical MAC and IP addresses (§5.2.1): incoming flows are spread over
// the slaves by hashing address/port tuples, so no per-clone rewriting of
// guest network state is ever needed.
package netsim

import (
	"errors"
	"fmt"
	"sync"
)

// MAC is a hardware address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IP is a v4 address.
type IP [4]byte

func (ip IP) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Proto is the transport protocol of a packet.
type Proto uint8

const (
	ProtoUDP Proto = iota
	ProtoTCP
)

// Packet is one frame moving through the simulated network.
type Packet struct {
	SrcMAC, DstMAC   MAC
	SrcIP, DstIP     IP
	SrcPort, DstPort uint16
	Proto            Proto
	Payload          []byte
}

// Endpoint receives packets. Deliver must not block indefinitely.
type Endpoint interface {
	Deliver(p Packet)
	// HWAddr is the endpoint's MAC address.
	HWAddr() MAC
}

// Errors.
var (
	ErrNoSlaves = errors.New("netsim: no slaves attached")
)

// Bridge is a learning L2 switch: it floods unknown destinations and
// learns source MACs. It is what vanilla Xen setups attach vifs to.
type Bridge struct {
	mu    sync.Mutex
	name  string
	ports []Endpoint
	fdb   map[MAC]Endpoint
}

// NewBridge creates an empty bridge.
func NewBridge(name string) *Bridge {
	return &Bridge{name: name, fdb: make(map[MAC]Endpoint)}
}

// Name returns the bridge name.
func (b *Bridge) Name() string { return b.name }

// Attach plugs an endpoint into the bridge.
func (b *Bridge) Attach(e Endpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ports = append(b.ports, e)
	b.fdb[e.HWAddr()] = e
}

// Detach removes an endpoint.
func (b *Bridge) Detach(e Endpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, p := range b.ports {
		if p == e {
			b.ports = append(b.ports[:i], b.ports[i+1:]...)
			break
		}
	}
	delete(b.fdb, e.HWAddr())
}

// Ports reports the number of attached endpoints.
func (b *Bridge) Ports() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.ports)
}

// Forward switches a packet: known unicast goes to the learned port,
// anything else floods (except back to the source).
func (b *Bridge) Forward(from Endpoint, p Packet) {
	b.mu.Lock()
	if from != nil {
		b.fdb[p.SrcMAC] = from
	}
	dst, known := b.fdb[p.DstMAC]
	var flood []Endpoint
	if !known {
		flood = make([]Endpoint, 0, len(b.ports))
		for _, port := range b.ports {
			if port != from {
				flood = append(flood, port)
			}
		}
	}
	b.mu.Unlock()
	if known {
		if dst != from {
			dst.Deliver(p)
		}
		return
	}
	for _, port := range flood {
		port.Deliver(p)
	}
}

// FlowHash implements the bonding driver's layer3+4 transmit hash: a
// stateless hash of the IP addresses and ports, so one flow always maps to
// one slave while distinct flows spread across slaves.
func FlowHash(p Packet) uint32 {
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= 16777619
	}
	for _, b := range p.SrcIP {
		mix(b)
	}
	for _, b := range p.DstIP {
		mix(b)
	}
	mix(byte(p.SrcPort >> 8))
	mix(byte(p.SrcPort))
	mix(byte(p.DstPort >> 8))
	mix(byte(p.DstPort))
	return h
}

// Bond is the Linux bonding interface in balance-xor mode with the
// layer3+4 policy: slaves share one MAC and IP identity, and the slave
// carrying a flow is picked by FlowHash modulo the slave count. It keeps
// no per-flow state (§5.2.1: "does not keep any state regarding the
// aggregated interfaces").
type Bond struct {
	mu     sync.Mutex
	name   string
	slaves []Endpoint
}

// NewBond creates an empty bond.
func NewBond(name string) *Bond {
	return &Bond{name: name}
}

// Name returns the bond name.
func (b *Bond) Name() string { return b.name }

// Enslave appends a slave interface (the udev-driven userspace operation
// xencloned performs when a clone vif appears).
func (b *Bond) Enslave(e Endpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.slaves = append(b.slaves, e)
}

// Release removes a slave.
func (b *Bond) Release(e Endpoint) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.slaves {
		if s == e {
			b.slaves = append(b.slaves[:i], b.slaves[i+1:]...)
			return
		}
	}
}

// Slaves reports the number of enslaved interfaces.
func (b *Bond) Slaves() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.slaves)
}

// SlaveFor returns the slave index FlowHash selects for p.
func (b *Bond) SlaveFor(p Packet) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.slaves) == 0 {
		return 0, ErrNoSlaves
	}
	return int(FlowHash(p) % uint32(len(b.slaves))), nil
}

// Deliver forwards an ingress packet to the hashed slave.
func (b *Bond) Deliver(p Packet) {
	b.mu.Lock()
	if len(b.slaves) == 0 {
		b.mu.Unlock()
		return
	}
	slave := b.slaves[FlowHash(p)%uint32(len(b.slaves))]
	b.mu.Unlock()
	slave.Deliver(p)
}

// HWAddr returns the bond identity: the first slave's MAC (all slaves
// carry identical addresses by construction).
func (b *Bond) HWAddr() MAC {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.slaves) == 0 {
		return MAC{}
	}
	return b.slaves[0].HWAddr()
}

// Selector chooses an OVS group bucket for a packet; the vanilla selector
// hashes like the bond, and tests exercise custom stateful selectors —
// the extensibility §5.2.1 credits OVS groups with.
type Selector func(p Packet, buckets int) int

// OVSGroup is an Open vSwitch select group: a set of buckets (clone
// interfaces) plus a pluggable selection function that may keep per-flow
// state.
type OVSGroup struct {
	mu      sync.Mutex
	name    string
	buckets []Endpoint
	sel     Selector
}

// NewOVSGroup creates a group with the vanilla hash selector.
func NewOVSGroup(name string) *OVSGroup {
	return &OVSGroup{
		name: name,
		sel:  func(p Packet, n int) int { return int(FlowHash(p) % uint32(n)) },
	}
}

// Name returns the group name.
func (g *OVSGroup) Name() string { return g.name }

// SetSelector installs a custom bucket selector.
func (g *OVSGroup) SetSelector(s Selector) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.sel = s
}

// AddBucket appends a clone interface.
func (g *OVSGroup) AddBucket(e Endpoint) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buckets = append(g.buckets, e)
}

// RemoveBucket removes a clone interface.
func (g *OVSGroup) RemoveBucket(e Endpoint) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, b := range g.buckets {
		if b == e {
			g.buckets = append(g.buckets[:i], g.buckets[i+1:]...)
			return
		}
	}
}

// Buckets reports the bucket count.
func (g *OVSGroup) Buckets() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.buckets)
}

// Deliver forwards an ingress packet to the selected bucket.
func (g *OVSGroup) Deliver(p Packet) {
	g.mu.Lock()
	if len(g.buckets) == 0 {
		g.mu.Unlock()
		return
	}
	idx := g.sel(p, len(g.buckets))
	if idx < 0 || idx >= len(g.buckets) {
		idx = 0
	}
	bucket := g.buckets[idx]
	g.mu.Unlock()
	bucket.Deliver(p)
}

// HWAddr returns the group identity (first bucket's MAC).
func (g *OVSGroup) HWAddr() MAC {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.buckets) == 0 {
		return MAC{}
	}
	return g.buckets[0].HWAddr()
}

// Host is a simple host endpoint collecting received packets (the
// benchmark harness's view of the wire).
type Host struct {
	mu     sync.Mutex
	mac    MAC
	ip     IP
	rx     []Packet
	notify chan struct{}
}

// NewHost creates a host endpoint.
func NewHost(mac MAC, ip IP) *Host {
	return &Host{mac: mac, ip: ip, notify: make(chan struct{}, 1)}
}

// HWAddr returns the host MAC.
func (h *Host) HWAddr() MAC { return h.mac }

// IPAddr returns the host IP.
func (h *Host) IPAddr() IP { return h.ip }

// Deliver queues a packet.
func (h *Host) Deliver(p Packet) {
	h.mu.Lock()
	h.rx = append(h.rx, p)
	h.mu.Unlock()
	select {
	case h.notify <- struct{}{}:
	default:
	}
}

// Received drains the received packets.
func (h *Host) Received() []Packet {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.rx
	h.rx = nil
	return out
}

// Notify returns a channel pulsed on packet arrival.
func (h *Host) Notify() <-chan struct{} { return h.notify }

// MACForDomain derives the conventional Xen guest MAC (00:16:3e prefix).
func MACForDomain(domid uint32) MAC {
	return MAC{0x00, 0x16, 0x3e, byte(domid >> 16), byte(domid >> 8), byte(domid)}
}
