// Package evtchn simulates Xen event channels, the notification primitive
// of the paravirtualized platform. Nephele extends the interface with the
// DOMID_CHILD wildcard (§5.1): a parent can create inter-domain channels
// whose remote end is "whichever children I clone later"; at clone time
// each child is implicitly bound to all such channels.
package evtchn

import (
	"errors"
	"fmt"

	"nephele/internal/mem"
	"nephele/internal/obs"
)

// Port identifies an event channel within one domain.
type Port int

// VIRQ identifies a virtual interrupt line.
type VIRQ int

// VIRQCloned is the new virtual interrupt Nephele adds for clone
// notifications delivered to xencloned (§5.1).
const VIRQCloned VIRQ = 1

// State of one channel endpoint.
type State uint8

const (
	StateFree State = iota
	StateUnbound
	StateInterdomain
	StateVIRQ
	// StateChildWildcard is an endpoint created with DOMID_CHILD: it has
	// no peer yet; every future clone is implicitly connected.
	StateChildWildcard
)

func (s State) String() string {
	switch s {
	case StateFree:
		return "free"
	case StateUnbound:
		return "unbound"
	case StateInterdomain:
		return "interdomain"
	case StateVIRQ:
		return "virq"
	case StateChildWildcard:
		return "child-wildcard"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// Errors.
var (
	ErrBadPort   = errors.New("evtchn: bad port")
	ErrBadState  = errors.New("evtchn: channel in wrong state")
	ErrNoSuchDom = errors.New("evtchn: no such domain")
	ErrPortsFull = errors.New("evtchn: no free ports")
)

// channel is one endpoint in a domain's port table.
type channel struct {
	state      State
	remoteDom  mem.DomID
	remotePort Port
	virq       VIRQ
	pending    bool
}

// domainTable is the per-domain event channel table. channels covers the
// ports the domain has touched so far: it starts as the reserved port 0
// alone and is extended up to the subsystem's limit, the way Xen adds event
// channel buckets on demand. A port in [len(channels), maxPort) is a free
// port that simply has no slot yet.
type domainTable struct {
	channels []channel
}

// slot returns the endpoint of port p, extending the table to it; the
// caller has checked p against the limit.
func (dt *domainTable) slot(p Port) *channel {
	if need := int(p) + 1 - len(dt.channels); need > 0 {
		dt.channels = append(dt.channels, make([]channel, need)...)
	}
	return &dt.channels[p]
}

// peek returns a copy of the endpoint of port p without extending the
// table: a port past the table's end reads as the free port it is.
func (dt *domainTable) peek(p Port) channel {
	if int(p) < len(dt.channels) {
		return dt.channels[p]
	}
	return channel{}
}

// Subsystem is the machine-wide event channel state.
type Subsystem struct {
	maxPort int
	domains map[mem.DomID]*domainTable
	virqs   map[VIRQ]map[mem.DomID]Port // virq -> (dom -> port bound)
}

// New creates the event channel subsystem; maxPorts is the limit each
// domain's port table may grow to, not its size (Xen's default is 1024 for
// 2-level ABI).
func New(maxPorts int) *Subsystem {
	return &Subsystem{
		maxPort: maxPorts,
		domains: make(map[mem.DomID]*domainTable),
		virqs:   make(map[VIRQ]map[mem.DomID]Port),
	}
}

// AddDomain registers a domain with an empty port table.
func (s *Subsystem) AddDomain(dom mem.DomID) {
	// Port 0 is reserved, like on Xen.
	s.domains[dom] = &domainTable{
		channels: []channel{{state: StateInterdomain}},
	}
}

// RemoveDomain tears a domain's channels down, resetting any peers.
func (s *Subsystem) RemoveDomain(dom mem.DomID) {
	dt := s.domains[dom]
	if dt == nil {
		return
	}
	for p := 1; p < len(dt.channels); p++ {
		ch := &dt.channels[p]
		if ch.state == StateInterdomain {
			if peer := s.domains[ch.remoteDom]; peer != nil && int(ch.remotePort) < len(peer.channels) {
				pc := &peer.channels[ch.remotePort]
				if pc.state == StateInterdomain && pc.remoteDom == dom {
					pc.state = StateUnbound
				}
			}
		}
	}
	for v, m := range s.virqs {
		delete(m, dom)
		if len(m) == 0 {
			delete(s.virqs, v)
		}
	}
	delete(s.domains, dom)
}

// allocPort returns the lowest free port: a freed slot of the table
// if there is one, else the first port past its end.
func (s *Subsystem) allocPort(dt *domainTable) (Port, error) {
	for p := 1; p < len(dt.channels); p++ {
		if dt.channels[p].state == StateFree {
			return Port(p), nil
		}
	}
	if len(dt.channels) >= s.maxPort {
		return 0, ErrPortsFull
	}
	return Port(len(dt.channels)), nil
}

// validPort reports whether p is a usable port number (port 0 is reserved).
func (s *Subsystem) validPort(p Port) bool { return int(p) > 0 && int(p) < s.maxPort }

func (s *Subsystem) tableOf(dom mem.DomID) (*domainTable, error) {
	dt := s.domains[dom]
	if dt == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDom, dom)
	}
	return dt, nil
}

// AllocUnbound allocates a port on dom awaiting a bind from remote
// (EVTCHNOP_alloc_unbound). remote may be mem.DomIDChild, producing a
// wildcard endpoint for future clones.
func (s *Subsystem) AllocUnbound(dom, remote mem.DomID) (Port, error) {
	dt, err := s.tableOf(dom)
	if err != nil {
		return 0, err
	}
	p, err := s.allocPort(dt)
	if err != nil {
		return 0, err
	}
	ch := dt.slot(p)
	if remote == mem.DomIDChild {
		ch.state = StateChildWildcard
	} else {
		ch.state = StateUnbound
	}
	ch.remoteDom = remote
	return p, nil
}

// BindInterdomain binds a local port on dom to an unbound remote port
// (EVTCHNOP_bind_interdomain).
func (s *Subsystem) BindInterdomain(dom, remoteDom mem.DomID, remotePort Port) (Port, error) {
	dt, err := s.tableOf(dom)
	if err != nil {
		return 0, err
	}
	rt, err := s.tableOf(remoteDom)
	if err != nil {
		return 0, err
	}
	if !s.validPort(remotePort) {
		return 0, fmt.Errorf("%w: remote %d", ErrBadPort, remotePort)
	}
	if rch := rt.peek(remotePort); rch.state != StateUnbound || (rch.remoteDom != dom && rch.remoteDom != mem.DomIDInvalid) {
		return 0, fmt.Errorf("%w: remote port %d is %v", ErrBadState, remotePort, rch.state)
	}
	p, err := s.allocPort(dt)
	if err != nil {
		return 0, err
	}
	*dt.slot(p) = channel{state: StateInterdomain, remoteDom: remoteDom, remotePort: remotePort}
	// The slot is taken only now: dt may be rt, and extending the table
	// moves it.
	rch := &rt.channels[remotePort]
	rch.state = StateInterdomain
	rch.remoteDom = dom
	rch.remotePort = p
	return p, nil
}

// BindVIRQ binds a virtual interrupt line to a fresh port on dom.
func (s *Subsystem) BindVIRQ(dom mem.DomID, v VIRQ) (Port, error) {
	dt, err := s.tableOf(dom)
	if err != nil {
		return 0, err
	}
	p, err := s.allocPort(dt)
	if err != nil {
		return 0, err
	}
	*dt.slot(p) = channel{state: StateVIRQ, virq: v}
	if s.virqs[v] == nil {
		s.virqs[v] = make(map[mem.DomID]Port)
	}
	s.virqs[v][dom] = p
	return p, nil
}

// Close frees a port.
func (s *Subsystem) Close(dom mem.DomID, p Port) error {
	dt, err := s.tableOf(dom)
	if err != nil {
		return err
	}
	if !s.validPort(p) {
		return fmt.Errorf("%w: %d", ErrBadPort, p)
	}
	if int(p) >= len(dt.channels) {
		return nil // a free port without a slot: nothing to close
	}
	ch := &dt.channels[p]
	if ch.state == StateVIRQ {
		if m := s.virqs[ch.virq]; m != nil {
			delete(m, dom)
		}
	}
	if ch.state == StateInterdomain {
		if peer := s.domains[ch.remoteDom]; peer != nil && int(ch.remotePort) < len(peer.channels) {
			pc := &peer.channels[ch.remotePort]
			if pc.state == StateInterdomain && pc.remoteDom == dom && pc.remotePort == p {
				pc.state = StateUnbound
				pc.remoteDom = mem.DomIDInvalid
			}
		}
	}
	*ch = channel{}
	return nil
}

// Send notifies the peer of an interdomain channel (EVTCHNOP_send).
// Sending on a child-wildcard endpoint notifies every bound clone peer;
// before any clone exists it is a no-op, like signalling an empty process
// group.
func (s *Subsystem) Send(dom mem.DomID, p Port) error {
	dt, err := s.tableOf(dom)
	if err != nil {
		return err
	}
	if !s.validPort(p) {
		return fmt.Errorf("%w: %d", ErrBadPort, p)
	}
	ch := dt.peek(p)
	switch ch.state {
	case StateInterdomain:
		s.raise(ch.remoteDom, ch.remotePort)
	case StateChildWildcard, StateUnbound:
		// Not connected yet; drop, as Xen does for unbound sends.
	default:
		return fmt.Errorf("%w: port %d is %v", ErrBadState, p, ch.state)
	}
	return nil
}

// RaiseVIRQ raises a virtual interrupt on every domain bound to it,
// charging delivery cost to ctx's meter.
func (s *Subsystem) RaiseVIRQ(ctx obs.OpCtx, v VIRQ) {
	meter := ctx.Meter()
	for dom, port := range s.virqs[v] {
		s.raise(dom, port)
	}
	meter.Charge(meter.Costs().VIRQDeliver, len(s.virqs[v]))
}

// raise marks the port pending; the receiving domain sees it on its
// next Pending check.
func (s *Subsystem) raise(dom mem.DomID, p Port) {
	dt := s.domains[dom]
	if dt == nil || !s.validPort(p) {
		return
	}
	dt.slot(p).pending = true
}

// Pending reports and clears the pending bit of a port.
func (s *Subsystem) Pending(dom mem.DomID, p Port) bool {
	dt := s.domains[dom]
	if dt == nil || int(p) <= 0 || int(p) >= len(dt.channels) {
		return false // no slot, so never raised
	}
	was := dt.channels[p].pending
	dt.channels[p].pending = false
	return was
}

// State reports the state of a port.
func (s *Subsystem) State(dom mem.DomID, p Port) State {
	dt := s.domains[dom]
	if dt == nil || int(p) < 0 {
		return StateFree
	}
	return dt.peek(p).state
}

// Peer returns the remote end of an interdomain channel.
func (s *Subsystem) Peer(dom mem.DomID, p Port) (mem.DomID, Port, error) {
	dt, err := s.tableOf(dom)
	if err != nil {
		return 0, 0, err
	}
	if !s.validPort(p) {
		return 0, 0, fmt.Errorf("%w: %d", ErrBadPort, p)
	}
	ch := dt.peek(p)
	if ch.state != StateInterdomain {
		return 0, 0, fmt.Errorf("%w: port %d is %v", ErrBadState, p, ch.state)
	}
	return ch.remoteDom, ch.remotePort, nil
}

// CloneStats reports event channel cloning work.
type CloneStats struct {
	Cloned   int // ports replicated into the child
	IDCBound int // child-wildcard ports connected parent<->child
}

// CloneDomain replicates parent's port table into child (which must
// already be registered). Interdomain channels to third parties (device
// backends) are recreated as unbound in the child — the second clone stage
// reconnects them during device cloning. Channels created with DOMID_CHILD
// are connected between parent and child: the child is implicitly bound to
// all the IDC channels of its parent (§5.2.2).
func (s *Subsystem) CloneDomain(ctx obs.OpCtx, parent, child mem.DomID) (CloneStats, error) {
	meter := ctx.Meter()
	var st CloneStats
	pt, err := s.tableOf(parent)
	if err != nil {
		return st, err
	}
	ct, err := s.tableOf(child)
	if err != nil {
		return st, err
	}
	// The child's table ends where the parent's last bound port does.
	last := len(pt.channels) - 1
	for last > 0 && pt.channels[last].state == StateFree {
		last--
	}
	ct.slot(Port(last))
	for p := 1; p <= last; p++ {
		pch := &pt.channels[p]
		switch pch.state {
		case StateFree:
			continue
		case StateVIRQ:
			ct.channels[p] = channel{state: StateVIRQ, virq: pch.virq}
			if s.virqs[pch.virq] == nil {
				s.virqs[pch.virq] = make(map[mem.DomID]Port)
			}
			s.virqs[pch.virq][child] = Port(p)
			st.Cloned++
		case StateChildWildcard:
			// Connect parent's wildcard endpoint to a real endpoint
			// in the child at the same port number. The parent
			// endpoint stays a wildcard (it must also serve future
			// clones) but remembers the latest child; sends fan out
			// via the per-child mirror entries.
			ct.channels[p] = channel{state: StateInterdomain, remoteDom: parent, remotePort: Port(p)}
			st.IDCBound++
			st.Cloned++
		case StateInterdomain:
			// Device channels: recreated unbound; reconnected by
			// the device clone path.
			ct.channels[p] = channel{state: StateUnbound, remoteDom: mem.DomIDInvalid}
			st.Cloned++
		case StateUnbound:
			ct.channels[p] = channel{state: StateUnbound, remoteDom: pch.remoteDom}
			st.Cloned++
		}
	}
	meter.Charge(meter.Costs().EvtchnClone, st.Cloned)
	return st, nil
}

// SendToChild delivers a notification from a parent wildcard port to one
// specific child (the hypervisor knows the family). Used by the IDC layer.
func (s *Subsystem) SendToChild(parent mem.DomID, p Port, child mem.DomID) error {
	pt, err := s.tableOf(parent)
	if err != nil {
		return err
	}
	if !s.validPort(p) {
		return fmt.Errorf("%w: %d", ErrBadPort, p)
	}
	if st := pt.peek(p).state; st != StateChildWildcard {
		return fmt.Errorf("%w: port %d is %v, want child-wildcard", ErrBadState, p, st)
	}
	s.raise(child, p)
	return nil
}

// NotifyParent delivers a notification from a cloned child IDC port to the
// parent's wildcard endpoint.
func (s *Subsystem) NotifyParent(child mem.DomID, p Port) error {
	ct, err := s.tableOf(child)
	if err != nil {
		return err
	}
	if !s.validPort(p) {
		return fmt.Errorf("%w: %d", ErrBadPort, p)
	}
	ch := ct.peek(p)
	if ch.state != StateInterdomain {
		return fmt.Errorf("%w: port %d is %v", ErrBadState, p, ch.state)
	}
	s.raise(ch.remoteDom, ch.remotePort)
	return nil
}

// PortCount returns the number of non-free ports of a domain (for clone
// accounting and tests).
func (s *Subsystem) PortCount(dom mem.DomID) int {
	dt := s.domains[dom]
	if dt == nil {
		return 0
	}
	n := 0
	for p := 1; p < len(dt.channels); p++ {
		if dt.channels[p].state != StateFree {
			n++
		}
	}
	return n
}
