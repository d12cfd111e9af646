package devices

import (
	"strings"

	"nephele/internal/fault"
	"nephele/internal/ring"
	"nephele/internal/vclock"
)

// ConsoleBackend models the Qemu process managing console backends in
// Dom0: it is notified by Xenstore when new console entries appear and
// creates per-domain state internally, without any changes to its code
// base (§5.2.1). Each domain's console output accumulates in its own log.
type ConsoleBackend struct {
	logs   map[uint32]*strings.Builder
	rings  map[uint32]*ring.Ring
	faults *fault.Registry
}

// NewConsoleBackend creates the console device model.
func NewConsoleBackend() *ConsoleBackend {
	return &ConsoleBackend{
		logs:  make(map[uint32]*strings.Builder),
		rings: make(map[uint32]*ring.Ring),
	}
}

// SetFaults installs a fault-injection registry on the clone path (tests).
func (c *ConsoleBackend) SetFaults(r *fault.Registry) {
	c.faults = r
}

// Create attaches a console for domid with a fresh ring.
func (c *ConsoleBackend) Create(domid uint32, meter *vclock.Meter) {
	if _, ok := c.rings[domid]; ok {
		return
	}
	c.rings[domid] = ring.New(64, 1)
	c.logs[domid] = &strings.Builder{}
	meter.Charge(meter.Costs().BackendCreate, 1)
}

// Clone creates the child console. The ring is deliberately NOT copied:
// duplicating the parent console output into the child would hinder
// debugging (§4.2). An injected fault fails the clone before any child
// state is created.
func (c *ConsoleBackend) Clone(parent, child uint32, meter *vclock.Meter) error {
	if err := c.faults.Check(fault.PointDevConsoleClone); err != nil {
		return err
	}
	pr, ok := c.rings[parent]
	if !ok {
		pr = ring.New(64, 1)
	}
	c.rings[child] = pr.Fresh()
	c.logs[child] = &strings.Builder{}
	meter.Charge(meter.Costs().CloneDeviceState, 1)
	return nil
}

// Remove drops a domain's console.
func (c *ConsoleBackend) Remove(domid uint32) {
	delete(c.rings, domid)
	delete(c.logs, domid)
}

// Has reports whether a console exists for domid.
func (c *ConsoleBackend) Has(domid uint32) bool {
	_, ok := c.rings[domid]
	return ok
}

// GuestWrite is the frontend path: the guest pushes console bytes through
// its ring; the backend drains into the domain log.
func (c *ConsoleBackend) GuestWrite(domid uint32, s string) error {
	r, ok := c.rings[domid]
	lg := c.logs[domid]
	if !ok {
		return ErrNoDevice
	}
	if err := r.Push(ring.Entry{Payload: []byte(s)}); err != nil {
		return err
	}
	// Backend drains eagerly (the Qemu side of the ring).
	for {
		e, err := r.Pop()
		if err != nil {
			break
		}
		lg.Write(e.Payload)
	}
	return nil
}

// Log returns the accumulated output of a domain's console.
func (c *ConsoleBackend) Log(domid uint32) string {
	lg, ok := c.logs[domid]
	if !ok {
		return ""
	}
	return lg.String()
}
