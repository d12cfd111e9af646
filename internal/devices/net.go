package devices

import (
	"fmt"
	"sync"

	"nephele/internal/fault"
	"nephele/internal/netsim"
	"nephele/internal/ring"
	"nephele/internal/vclock"
)

// Ring geometry from the paper's measurements: the RX ring alone accounts
// for 1 MiB of each clone's private memory (§6.2), i.e. 256 pages; the TX
// ring is small.
const (
	RXRingPages = 256
	RXRingSlots = 256
	TXRingPages = 8
	TXRingSlots = 256
)

// Vif is one paravirtualized network device: the pair of a frontend
// (guest) and a backend (Dom0 kernel) sharing TX and RX rings. The backend
// side implements netsim.Endpoint so it can be attached to a bridge, bond
// or OVS group.
type Vif struct {
	mu sync.Mutex

	DomID uint32
	Index int
	MAC   netsim.MAC
	IP    netsim.IP

	tx *ring.Ring // guest -> backend
	rx *ring.Ring // backend -> guest

	state XenbusState

	// egress is where the backend forwards guest transmissions (the
	// switch the vif is plugged into).
	egress func(p netsim.Packet)
	// rxNotify wakes the guest when the backend fills the RX ring.
	rxNotify func()

	// Preallocated RX buffer metadata: the frontend preallocates guest
	// buffers for every RX slot; the slot Meta values carry allocator
	// cookies, which is why the RX ring must be copied on clone (§4.2).
	rxBufCookie uint64
}

// NewVif creates a connected vif pair for a freshly booted guest.
func NewVif(domid uint32, index int, ip netsim.IP) *Vif {
	v := &Vif{
		DomID: domid,
		Index: index,
		MAC:   netsim.MACForDomain(domid),
		IP:    ip,
		tx:    ring.New(TXRingSlots, TXRingPages),
		rx:    ring.New(RXRingSlots, RXRingPages),
		state: StateConnected,
	}
	v.prefillRX()
	return v
}

// prefillRX simulates the frontend preallocating RX buffers: every slot
// gets an allocator cookie in Meta.
func (v *Vif) prefillRX() {
	v.rxBufCookie = uint64(v.DomID)<<32 | 0x9bf
}

// State reports the Xenbus state.
func (v *Vif) State() XenbusState {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.state
}

// HWAddr implements netsim.Endpoint.
func (v *Vif) HWAddr() netsim.MAC { return v.MAC }

// SetEgress plugs the backend into a switch's forwarding function.
func (v *Vif) SetEgress(f func(p netsim.Packet)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.egress = f
}

// SetRXNotify installs the guest's RX wakeup (event channel upcall).
func (v *Vif) SetRXNotify(f func()) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.rxNotify = f
}

// GuestSend is the frontend transmit path: the guest pushes a packet into
// the TX ring; the backend pops it and forwards to the switch.
func (v *Vif) GuestSend(p netsim.Packet) error {
	v.mu.Lock()
	if v.state != StateConnected {
		v.mu.Unlock()
		return ErrNotConnected
	}
	tx := v.tx
	v.mu.Unlock()
	if err := tx.Push(ring.Entry{Payload: marshalPacket(p)}); err != nil {
		return err
	}
	// Backend service (netback softirq).
	e, err := tx.Pop()
	if err != nil {
		return err
	}
	pkt := unmarshalPacket(e.Payload)
	pkt.SrcMAC = v.MAC
	v.mu.Lock()
	egress := v.egress
	v.mu.Unlock()
	if egress != nil {
		egress(pkt)
	}
	return nil
}

// Deliver implements netsim.Endpoint: the backend pushes an ingress packet
// into the RX ring and kicks the frontend.
func (v *Vif) Deliver(p netsim.Packet) {
	v.mu.Lock()
	if v.state != StateConnected {
		v.mu.Unlock()
		return
	}
	rx := v.rx
	notify := v.rxNotify
	cookie := v.rxBufCookie
	v.mu.Unlock()
	if err := rx.Push(ring.Entry{Payload: marshalPacket(p), Meta: cookie}); err != nil {
		return // ring full: drop, like real netback under overload
	}
	if notify != nil {
		notify()
	}
}

// GuestReceive pops one packet from the RX ring.
func (v *Vif) GuestReceive() (netsim.Packet, bool) {
	v.mu.Lock()
	rx := v.rx
	v.mu.Unlock()
	e, err := rx.Pop()
	if err != nil {
		return netsim.Packet{}, false
	}
	return unmarshalPacket(e.Payload), true
}

// RXBacklog reports queued ingress packets.
func (v *Vif) RXBacklog() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rx.Len()
}

// PrivatePages reports the guest frames backing this device's rings — the
// per-clone private memory this device contributes (the paper's 1 MiB RX
// figure).
func (v *Vif) PrivatePages() int {
	return v.tx.Pages() + v.rx.Pages()
}

// Clone produces the child's vif following the network clone policy
// (§4.2): both rings are copied because their contents are tied to guest
// state — pending TX requests must be serviced in both domains, RX slots
// carry preallocated-buffer metadata. The clone keeps the same MAC and IP
// (design goal 1 of §5.2.1) and comes up already Connected, bypassing the
// negotiation. The Linux netback change for this is 14 lines; here it is
// this constructor.
func (v *Vif) Clone(childDom uint32, meter *vclock.Meter) *Vif {
	v.mu.Lock()
	defer v.mu.Unlock()
	c := &Vif{
		DomID:       childDom,
		Index:       v.Index,
		MAC:         v.MAC, // identical MAC ...
		IP:          v.IP,  // ... and IP
		tx:          v.tx.Clone(),
		rx:          v.rx.Clone(),
		state:       StateConnected, // negotiation skipped
		rxBufCookie: v.rxBufCookie,
	}
	meter.Charge(meter.Costs().CloneDeviceState, 1)
	// Ring copies: one page copy per backing frame.
	meter.Charge(meter.Costs().PageCopy, c.tx.Pages()+c.rx.Pages())
	return c
}

// Close moves the device to Closed.
func (v *Vif) Close() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.state = StateClosed
}

// marshalPacket / unmarshalPacket move packets through ring payloads so
// ring cloning (a byte copy) is faithful to what crosses a real ring.
func marshalPacket(p netsim.Packet) []byte {
	buf := make([]byte, 0, 21+len(p.Payload))
	buf = append(buf, p.SrcMAC[:]...)
	buf = append(buf, p.DstMAC[:]...)
	buf = append(buf, p.SrcIP[:]...)
	buf = append(buf, p.DstIP[:]...)
	buf = append(buf,
		byte(p.SrcPort>>8), byte(p.SrcPort),
		byte(p.DstPort>>8), byte(p.DstPort),
		byte(p.Proto))
	buf = append(buf, p.Payload...)
	return buf
}

func unmarshalPacket(b []byte) netsim.Packet {
	if len(b) < 21 {
		return netsim.Packet{}
	}
	var p netsim.Packet
	copy(p.SrcMAC[:], b[0:6])
	copy(p.DstMAC[:], b[6:12])
	copy(p.SrcIP[:], b[12:16])
	copy(p.DstIP[:], b[16:20])
	p.SrcPort = uint16(b[20])<<8 | uint16(b[21])
	p.DstPort = uint16(b[22])<<8 | uint16(b[23])
	p.Proto = netsim.Proto(b[24])
	if len(b) > 25 {
		p.Payload = append([]byte(nil), b[25:]...)
	}
	return p
}

// NetBackend is the Dom0 netback driver: it owns the vifs of all guests
// and reacts to Xenstore entries by creating device state and emitting
// udev events.
type NetBackend struct {
	mu     sync.Mutex
	vifs   map[devKey]*Vif
	udev   *UdevQueue
	faults *fault.Registry
}

// NewNetBackend creates the netback driver.
func NewNetBackend(udev *UdevQueue) *NetBackend {
	return &NetBackend{vifs: make(map[devKey]*Vif), udev: udev}
}

// devKey identifies one device of an indexed kind (vif, vbd) in its
// backend's map.
type devKey struct {
	domid uint32
	index int
}

// SetFaults installs a fault-injection registry on the clone path (tests).
func (nb *NetBackend) SetFaults(r *fault.Registry) {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	nb.faults = r
}

// CreateVif is the boot path: create internal state, emit the udev add
// event that triggers xl's userspace operations.
func (nb *NetBackend) CreateVif(domid uint32, index int, ip netsim.IP, meter *vclock.Meter) *Vif {
	v := NewVif(domid, index, ip)
	nb.mu.Lock()
	nb.vifs[devKey{domid, index}] = v
	nb.mu.Unlock()
	meter.Charge(meter.Costs().BackendCreate, 1)
	nb.udev.Emit(UdevEvent{Action: UdevAdd, Kind: "vif", DomID: domid, Index: index}, meter)
	return v
}

// CloneVif is the clone path: reuse the parent device state, skip the
// negotiation, emit udev for the userspace finalization (§5.2.1).
func (nb *NetBackend) CloneVif(parent, child uint32, index int, meter *vclock.Meter) (*Vif, error) {
	nb.mu.Lock()
	faults := nb.faults
	pv, ok := nb.vifs[devKey{parent, index}]
	nb.mu.Unlock()
	if err := faults.Check(fault.PointDevVifClone); err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: vif %d/%d", ErrNoDevice, parent, index)
	}
	cv := pv.Clone(child, meter)
	nb.mu.Lock()
	nb.vifs[devKey{child, index}] = cv
	nb.mu.Unlock()
	nb.udev.Emit(UdevEvent{Action: UdevAdd, Kind: "vif", DomID: child, Index: index}, meter)
	return cv, nil
}

// Vif looks a device up.
func (nb *NetBackend) Vif(domid uint32, index int) (*Vif, error) {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	v, ok := nb.vifs[devKey{domid, index}]
	if !ok {
		return nil, fmt.Errorf("%w: vif %d/%d", ErrNoDevice, domid, index)
	}
	return v, nil
}

// RemoveVif tears a device down, emitting the udev remove event.
func (nb *NetBackend) RemoveVif(domid uint32, index int, meter *vclock.Meter) {
	nb.mu.Lock()
	v, ok := nb.vifs[devKey{domid, index}]
	delete(nb.vifs, devKey{domid, index})
	nb.mu.Unlock()
	if !ok {
		return
	}
	v.Close()
	nb.udev.Emit(UdevEvent{Action: UdevRemove, Kind: "vif", DomID: domid, Index: index}, meter)
}

// plug is the userspace finalization of a new vif (step 2.3): whoever
// asked for the device consumes the udev add event the backend emitted and
// plugs the vif into the switch.
func (nb *NetBackend) plug(v *Vif, sw Switch, meter *vclock.Meter) {
	if ev, ok := nb.udev.TryRecv(); ok && ev.Action == UdevAdd && sw != nil {
		sw.Attach(v, meter)
	}
}

// unplug undoes plug and the device behind it: switch detach, RemoveVif
// and its udev remove event. It reports false when there is no such vif.
func (nb *NetBackend) unplug(domid uint32, index int, sw Switch, meter *vclock.Meter) bool {
	nb.mu.Lock()
	v := nb.vifs[devKey{domid, index}]
	nb.mu.Unlock()
	if v == nil {
		return false
	}
	if sw != nil {
		sw.Detach(v)
	}
	nb.RemoveVif(domid, index, meter)
	nb.udev.TryRecv()
	return true
}

// Count reports the number of live vifs.
func (nb *NetBackend) Count() int {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	return len(nb.vifs)
}
