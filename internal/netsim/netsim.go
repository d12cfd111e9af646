// Package netsim simulates the Dom0 networking substrate: Ethernet-ish
// frames and the Linux bonding driver in balance-xor mode with the
// layer3+4 transmit hash policy. Nephele enslaves clone interfaces that
// carry identical MAC and IP addresses into the bond (§5.2.1): incoming
// flows are spread over the slaves by hashing address/port tuples, so no
// per-clone rewriting of guest network state is ever needed.
package netsim

import (
	"errors"
	"strconv"
)

// MAC is a hardware address.
type MAC [6]byte

func (m MAC) String() string {
	var b [len("00:00:00:00:00:00")]byte
	return string(m.Append(b[:0]))
}

// Append appends the address to b as String spells it: six lower-case
// two-digit hex bytes separated by colons.
func (m MAC) Append(b []byte) []byte {
	const hex = "0123456789abcdef"
	for i, x := range m {
		if i > 0 {
			b = append(b, ':')
		}
		b = append(b, hex[x>>4], hex[x&0xf])
	}
	return b
}

// IP is a v4 address.
type IP [4]byte

func (ip IP) String() string {
	var b [len("255.255.255.255")]byte
	return string(ip.Append(b[:0]))
}

// Append appends the address to b as String spells it: dotted decimal.
func (ip IP) Append(b []byte) []byte {
	for i, x := range ip {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(x), 10)
	}
	return b
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
	b.slaves = append(b.slaves, e)
}

// Release removes a slave.
func (b *Bond) Release(e Endpoint) {
	for i, s := range b.slaves {
		if s == e {
			b.slaves = append(b.slaves[:i], b.slaves[i+1:]...)
			return
		}
	}
}

// Slaves reports the number of enslaved interfaces.
func (b *Bond) Slaves() int {
	return len(b.slaves)
}

// SlaveFor returns the slave index FlowHash selects for p.
func (b *Bond) SlaveFor(p Packet) (int, error) {
	if len(b.slaves) == 0 {
		return 0, ErrNoSlaves
	}
	return int(FlowHash(p) % uint32(len(b.slaves))), nil
}

// Deliver forwards an ingress packet to the hashed slave.
func (b *Bond) Deliver(p Packet) {
	if len(b.slaves) == 0 {
		return
	}
	slave := b.slaves[FlowHash(p)%uint32(len(b.slaves))]
	slave.Deliver(p)
}

// HWAddr returns the bond identity: the first slave's MAC (all slaves
// carry identical addresses by construction).
func (b *Bond) HWAddr() MAC {
	if len(b.slaves) == 0 {
		return MAC{}
	}
	return b.slaves[0].HWAddr()
}

// Host is a simple host endpoint collecting received packets (the
// benchmark harness's view of the wire).
type Host struct {
	mac MAC
	ip  IP
	rx  []Packet
}

// NewHost creates a host endpoint.
func NewHost(mac MAC, ip IP) *Host {
	return &Host{mac: mac, ip: ip}
}

// HWAddr returns the host MAC.
func (h *Host) HWAddr() MAC { return h.mac }

// IPAddr returns the host IP.
func (h *Host) IPAddr() IP { return h.ip }

// Deliver queues a packet.
func (h *Host) Deliver(p Packet) {
	h.rx = append(h.rx, p)
}

// Received drains the received packets.
func (h *Host) Received() []Packet {
	out := h.rx
	h.rx = nil
	return out
}

// MACForDomain derives the conventional Xen guest MAC (00:16:3e prefix).
func MACForDomain(domid uint32) MAC {
	return MAC{0x00, 0x16, 0x3e, byte(domid >> 16), byte(domid >> 8), byte(domid)}
}
