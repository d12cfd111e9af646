package hv

// notifyRing is the bounded clone-notification ring registered by
// xencloned, with a child-ID index so CloneAbort can drop a queued
// notification in O(1) instead of scanning the ring. Dropped slots become
// tombstones that popAll skips, so push/drop/pop are all constant-time per
// notification.
type notifyRing struct {
	entries []notifyEntry
	index   map[DomID]int // child → slot in entries
	live    int           // entries not yet dropped
	cap     int
}

type notifyEntry struct {
	n       CloneNotification
	dropped bool
}

func newNotifyRing(capacity int) *notifyRing {
	return &notifyRing{index: make(map[DomID]int), cap: capacity}
}

// push appends a notification; a full ring back-pressures cloning.
func (r *notifyRing) push(n CloneNotification) error {
	if r.live >= r.cap {
		return ErrRingFull
	}
	r.index[n.Child] = len(r.entries)
	r.entries = append(r.entries, notifyEntry{n: n})
	r.live++
	return nil
}

// drop removes the queued notification for child, reporting whether one was
// present.
func (r *notifyRing) drop(child DomID) bool {
	i, ok := r.index[child]
	if !ok {
		return false
	}
	delete(r.index, child)
	r.entries[i].dropped = true
	r.live--
	if r.live == 0 {
		r.entries = r.entries[:0]
	}
	return true
}

// popAll drains the ring in push order, skipping tombstones.
func (r *notifyRing) popAll() []CloneNotification {
	if r.live == 0 {
		r.entries = r.entries[:0]
		return nil
	}
	out := make([]CloneNotification, 0, r.live)
	for i := range r.entries {
		if !r.entries[i].dropped {
			out = append(out, r.entries[i].n)
		}
	}
	r.entries = r.entries[:0]
	clear(r.index)
	r.live = 0
	return out
}

// len reports the number of queued (undropped) notifications.
func (r *notifyRing) len() int { return r.live }
