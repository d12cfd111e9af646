// Package devices implements the paravirtualized split-device model:
// frontend drivers living in guests and backend drivers living in the host
// domain, discovering each other through Xenstore, exchanging data over
// shared rings, and — the Nephele extension — cloning without repeating
// the Xenbus negotiation (§5.2.1). Which device kinds exist — console,
// network (vif), 9pfs, block (vbd) — and what create, clone and remove
// mean for each is the device-kind table in kinds.go; the toolstack and
// xencloned walk it and name no kind themselves.
package devices

import (
	"errors"
	"fmt"
	"strconv"

	"nephele/internal/vclock"
	"nephele/internal/xenstore"
)

// XenbusState is the device negotiation state machine.
type XenbusState int

const (
	StateUnknown XenbusState = iota
	StateInitialising
	StateInitWait
	StateInitialised
	StateConnected
	StateClosing
	StateClosed
)

func (s XenbusState) String() string {
	switch s {
	case StateUnknown:
		return "Unknown"
	case StateInitialising:
		return "Initialising"
	case StateInitWait:
		return "InitWait"
	case StateInitialised:
		return "Initialised"
	case StateConnected:
		return "Connected"
	case StateClosing:
		return "Closing"
	case StateClosed:
		return "Closed"
	default:
		return fmt.Sprintf("XenbusState(%d)", int(s))
	}
}

// Errors.
var (
	ErrNotConnected = errors.New("devices: device not connected")
	ErrNoDevice     = errors.New("devices: no such device")
)

// FrontendPath returns the conventional Xenstore path of a frontend
// device directory.
func FrontendPath(domid uint32, kind string, index int) string {
	return fmt.Sprintf("/local/domain/%d/device/%s/%d", domid, kind, index)
}

// BackendPath returns the conventional Xenstore path of a backend device
// directory (backends live under Dom0).
func BackendPath(domid uint32, kind string, index int) string {
	return fmt.Sprintf("/local/domain/0/backend/%s/%d/%d", kind, domid, index)
}

// FrontendDir is the per-guest device subtree used by xs_clone.
func FrontendDir(domid uint32, kind string) string {
	return fmt.Sprintf("/local/domain/%d/device/%s", domid, kind)
}

// BackendDir is the per-guest backend subtree used by xs_clone.
func BackendDir(domid uint32, kind string) string {
	return fmt.Sprintf("/local/domain/0/backend/%s/%d", kind, domid)
}

// Entry is one Xenstore key/value pair of a device directory.
type Entry struct{ Key, Value string }

// WriteDevicePair creates the frontend and backend Xenstore entries for a
// new device, the way xl does during boot, and drives the two-sided
// negotiation to Connected. Each Write is one store request; the
// negotiation itself costs DeviceNegotiate. The writes go out in a fixed
// order — the frontend's entries, the backend's, then each extra entry on
// both ends — because a request's StorePerNode charge depends on how many
// directories the requests before it created.
func WriteDevicePair(store *xenstore.Store, domid uint32, kind string, index int, extra []Entry, meter *vclock.Meter) error {
	fp := FrontendPath(domid, kind, index)
	bp := BackendPath(domid, kind, index)
	writes := []Entry{
		{fp + "/backend", bp},
		{fp + "/backend-id", "0"},
		{fp + "/state", strconv.Itoa(int(StateInitialising))},
		{fp + "/handle", strconv.Itoa(index)},
		{fp + "/tx-ring-ref", "0"},
		{fp + "/rx-ring-ref", "0"},
		{fp + "/event-channel", "0"},
		{bp + "/frontend", fp},
		{bp + "/frontend-id", strconv.FormatUint(uint64(domid), 10)},
		{bp + "/state", strconv.Itoa(int(StateInitialising))},
		{bp + "/handle", strconv.Itoa(index)},
		{bp + "/online", "1"},
		{bp + "/hotplug-status", "connected"},
	}
	for _, e := range extra {
		writes = append(writes, Entry{fp + "/" + e.Key, e.Value}, Entry{bp + "/" + e.Key, e.Value})
	}
	for _, w := range writes {
		if err := store.Write(w.Key, w.Value, meter); err != nil {
			return err
		}
	}
	// Negotiation: both ends step Initialising -> InitWait ->
	// Initialised -> Connected; each transition is a store write the
	// peer observes with a read of the other end's state.
	for _, st := range []XenbusState{StateInitWait, StateInitialised, StateConnected} {
		if err := store.Write(bp+"/state", strconv.Itoa(int(st)), meter); err != nil {
			return err
		}
		if _, err := store.Read(fp+"/state", meter); err != nil {
			return err
		}
		if err := store.Write(fp+"/state", strconv.Itoa(int(st)), meter); err != nil {
			return err
		}
		if _, err := store.Read(bp+"/state", meter); err != nil {
			return err
		}
	}
	meter.Charge(meter.Costs().DeviceNegotiate, 1)
	return nil
}

// DeviceState reads the backend state of a device.
func DeviceState(store *xenstore.Store, domid uint32, kind string, index int, meter *vclock.Meter) (XenbusState, error) {
	v, err := store.Read(BackendPath(domid, kind, index)+"/state", meter)
	if err != nil {
		return StateUnknown, err
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return StateUnknown, fmt.Errorf("devices: bad state %q: %v", v, err)
	}
	return XenbusState(n), nil
}

// UdevAction distinguishes udev event types.
type UdevAction string

const (
	UdevAdd    UdevAction = "add"
	UdevRemove UdevAction = "remove"
)

// UdevEvent is generated in Dom0 when a backend creates or removes a
// kernel interface; xencloned subscribes and performs the userspace
// finalization (e.g. enslaving a new vif into a bond).
type UdevEvent struct {
	Action UdevAction
	Kind   string // "vif", ...
	DomID  uint32
	Index  int
}

// UdevQueue is the Dom0 event queue between kernel backends and whoever
// finalizes their devices in userspace (xl on boot, xencloned on clone). A
// nil queue is a host without udev: Emit drops the event uncharged and
// TryRecv finds none.
type UdevQueue struct {
	ch chan UdevEvent
}

// NewUdevQueue creates a queue with capacity for burst arrivals.
func NewUdevQueue() *UdevQueue {
	return &UdevQueue{ch: make(chan UdevEvent, 1024)}
}

// Emit publishes an event, charging the udev generation cost.
func (q *UdevQueue) Emit(ev UdevEvent, meter *vclock.Meter) {
	if q == nil {
		return
	}
	meter.Charge(meter.Costs().UdevEvent, 1)
	q.ch <- ev
}

// TryRecv returns the next event without blocking.
func (q *UdevQueue) TryRecv() (UdevEvent, bool) {
	if q == nil {
		return UdevEvent{}, false
	}
	select {
	case ev := <-q.ch:
		return ev, true
	default:
		return UdevEvent{}, false
	}
}
