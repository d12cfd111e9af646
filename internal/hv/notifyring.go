package hv

// notifyRing is the bounded clone-notification ring registered by
// xencloned: a FIFO of at most notifyRingSlots notifications.
type notifyRing []CloneNotification

// push appends a notification; a full ring back-pressures cloning.
func (r *notifyRing) push(n CloneNotification) error {
	if len(*r) >= notifyRingSlots {
		return ErrRingFull
	}
	*r = append(*r, n)
	return nil
}

// drop removes the queued notification for child, if any. xencloned aborts a child only after draining its notification,
// so on that path the scan of at most notifyRingSlots entries finds none.
func (r *notifyRing) drop(child DomID) {
	for i, n := range *r {
		if n.Child == child {
			*r = append((*r)[:i], (*r)[i+1:]...)
			return
		}
	}
}

// popAll drains the ring in push order.
func (r *notifyRing) popAll() []CloneNotification {
	if len(*r) == 0 {
		return nil
	}
	out := append([]CloneNotification(nil), *r...)
	*r = (*r)[:0]
	return out
}
