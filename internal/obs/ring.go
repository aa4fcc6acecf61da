package obs

// Ring is a bounded event capture: an Observer that keeps the most recent
// events published to it, overwriting the oldest once full. Select which
// events it sees by the kinds it subscribes to (Bus.Subscribe). The zero
// value is unusable; create one with NewRing.
//
// Like the rest of the package, Ring is single-threaded and deterministic:
// it records events in dispatch order with no timestamps.
type Ring struct {
	buf  []Event // preallocated at capacity
	next int     // slot the next event is written to
	n    int     // number of retained events, <= len(buf)

	seen    uint64 // events handled
	dropped uint64 // retained events overwritten by later ones
}

// NewRing creates a capture holding at most capacity events. capacity
// must be positive; NewRing panics otherwise, because a zero-capacity
// ring silently recording nothing is always a caller bug.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("obs: NewRing capacity must be positive")
	}
	return &Ring{buf: make([]Event, capacity)}
}

// HandleEvent implements Observer: it retains ev, overwriting the oldest
// retained event if the ring is full. The event is stored field by
// field, which compiles to direct stores into the slot instead of a
// copy of the whole struct through the stack.
func (r *Ring) HandleEvent(ev Event) {
	r.seen++
	e := &r.buf[r.next]
	e.Kind, e.Source, e.PID, e.Addr, e.Access, e.Value = ev.Kind, ev.Source, ev.PID, ev.Addr, ev.Access, ev.Value
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	if r.n < len(r.buf) {
		r.n++
	} else {
		r.dropped++
	}
}

// Events returns the retained events, oldest first, as a fresh slice.
func (r *Ring) Events() []Event {
	out := make([]Event, 0, r.n)
	if r.n < len(r.buf) {
		return append(out, r.buf[:r.n]...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Len returns the number of retained events.
func (r *Ring) Len() int { return r.n }

// Seen returns the number of events handled, including ones since
// overwritten.
func (r *Ring) Seen() uint64 { return r.seen }

// Dropped returns the number of retained events that were overwritten
// because the ring was full.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Reset discards all retained events and zeroes the counters.
func (r *Ring) Reset() {
	r.next, r.n = 0, 0
	r.seen, r.dropped = 0, 0
}
