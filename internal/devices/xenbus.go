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

	"nephele/internal/obs"
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

// DomainPath returns a domain's Xenstore directory, /local/domain/<domid>.
func DomainPath(domid uint32) string {
	return "/local/domain/" + formatDomID(domid)
}

// BackendPath returns the conventional Xenstore path of a backend device
// directory (backends live under Dom0).
func BackendPath(domid uint32, kind string, index int) string {
	return devicePath(true, formatDomID(domid), kind, strconv.Itoa(index))
}

// FrontendDir is the per-guest device subtree used by xs_clone.
func FrontendDir(domid uint32, kind string) string {
	return devicePath(false, formatDomID(domid), kind, "")
}

// BackendDir is the per-guest backend subtree used by xs_clone.
func BackendDir(domid uint32, kind string) string {
	return devicePath(true, formatDomID(domid), kind, "")
}

// formatDomID formats a domain ID as Xenstore paths and values spell it.
func formatDomID(domid uint32) string { return strconv.FormatUint(uint64(domid), 10) }

// devicePath builds every device path from a domain ID formatted once, so
// a caller that needs the ID several times pays for one formatting: the
// frontend's /local/domain/<id>/device/<kind>/<index>, or the backend's
// /local/domain/0/backend/<kind>/<id>/<index>. An empty index stops at the
// per-guest directory of the kind, which xs_clone copies whole. Each case
// is one concatenation, so one allocation.
func devicePath(backend bool, id, kind, index string) string {
	switch {
	case backend && index == "":
		return "/local/domain/0/backend/" + kind + "/" + id
	case backend:
		return "/local/domain/0/backend/" + kind + "/" + id + "/" + index
	case index == "":
		return "/local/domain/" + id + "/device/" + kind
	default:
		return "/local/domain/" + id + "/device/" + kind + "/" + index
	}
}

// Entry is one Xenstore key/value pair of a device directory.
type Entry struct{ Key, Value string }

// WriteDevicePair creates the frontend and backend Xenstore entries for a
// new device, the way xl does during boot, and drives the two-sided
// negotiation to Connected. Each Write and Read is one store request,
// issued through a handle on each end's directory; the negotiation itself
// costs DeviceNegotiate. The writes go out in a fixed order — the
// frontend's entries, the backend's, then each extra entry on both ends —
// because a request's StorePerNode charge depends on how many directories
// the requests before it created.
func WriteDevicePair(ctx obs.OpCtx, store *xenstore.Store, domid uint32, kind string, index int, extra []Entry) error {
	meter := ctx.Meter()
	id, handle := formatDomID(domid), strconv.Itoa(index)
	fp, bp := devicePath(false, id, kind, handle), devicePath(true, id, kind, handle)
	front, err := store.Dir(fp)
	if err != nil {
		return err
	}
	back, err := store.Dir(bp)
	if err != nil {
		return err
	}
	initialising := strconv.Itoa(int(StateInitialising))
	for _, e := range [...]Entry{
		{"backend", bp},
		{"backend-id", "0"},
		{"state", initialising},
		{"handle", handle},
		{"tx-ring-ref", "0"},
		{"rx-ring-ref", "0"},
		{"event-channel", "0"},
	} {
		if err := front.Write(e.Key, e.Value, meter); err != nil {
			return err
		}
	}
	for _, e := range [...]Entry{
		{"frontend", fp},
		{"frontend-id", id},
		{"state", initialising},
		{"handle", handle},
		{"online", "1"},
		{"hotplug-status", "connected"},
	} {
		if err := back.Write(e.Key, e.Value, meter); err != nil {
			return err
		}
	}
	for _, e := range extra {
		if err := front.Write(e.Key, e.Value, meter); err != nil {
			return err
		}
		if err := back.Write(e.Key, e.Value, meter); err != nil {
			return err
		}
	}
	// Negotiation: both ends step Initialising -> InitWait ->
	// Initialised -> Connected; each transition is a store write the
	// peer observes with a read of the other end's state.
	for _, st := range []XenbusState{StateInitWait, StateInitialised, StateConnected} {
		state := strconv.Itoa(int(st))
		if err := back.Write("state", state, meter); err != nil {
			return err
		}
		if _, err := front.Read("state", meter); err != nil {
			return err
		}
		if err := front.Write("state", state, meter); err != nil {
			return err
		}
		if _, err := back.Read("state", meter); err != nil {
			return err
		}
	}
	meter.Charge(meter.Costs().DeviceNegotiate, 1)
	return nil
}

// DeviceState reads the backend state of a device.
func DeviceState(ctx obs.OpCtx, store *xenstore.Store, domid uint32, kind string, index int) (XenbusState, error) {
	meter := ctx.Meter()
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
// finalizes their devices in userspace (xl on boot, xencloned on clone): a
// FIFO that grows with what is left unread, so Emit never blocks. A nil
// queue is a host without udev: Emit drops the event uncharged and TryRecv
// finds none.
type UdevQueue struct {
	events []UdevEvent // unread from head on, oldest first
	head   int
}

// NewUdevQueue creates an empty queue.
func NewUdevQueue() *UdevQueue { return &UdevQueue{} }

// Emit publishes an event, charging the udev generation cost.
func (q *UdevQueue) Emit(ctx obs.OpCtx, ev UdevEvent) {
	meter := ctx.Meter()
	if q == nil {
		return
	}
	meter.Charge(meter.Costs().UdevEvent, 1)
	q.events = append(q.events, ev)
}

// TryRecv returns the oldest unread event, if any.
func (q *UdevQueue) TryRecv() (UdevEvent, bool) {
	if q == nil {
		return UdevEvent{}, false
	}
	if q.head == len(q.events) {
		return UdevEvent{}, false
	}
	ev := q.events[q.head]
	q.head++
	if q.head == len(q.events) {
		// Drained: reuse the backing array from its start.
		q.events, q.head = q.events[:0], 0
	}
	return ev, true
}
