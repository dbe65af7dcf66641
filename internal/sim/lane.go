package sim

// Lane is a fixed-delay FIFO of events: every event scheduled through it
// runs exactly d after the clock at scheduling time. A packet simulation
// schedules about half of all its events this way — each hop's
// propagation arrival lands one link delay after the transmission ends —
// and a lane takes them out of the ladder queue entirely.
//
// Ordering: the engine clock never goes back and the scheduling sequence
// number only grows, so successive entries of one lane have non-decreasing
// times and increasing sequence numbers. A lane is therefore sorted by
// (at, seq) by construction, and scheduling is an O(1) ring append with no
// bucketing or sorting. The engine executes the least of the ladder front
// and every lane head under the same (at, seq) order, so routing an event
// through a lane never changes when it runs relative to any other event.
//
// Lane events are ordinary engine events otherwise: they take a slot from
// the shared arena, return a generation-stamped EventID that Cancel
// accepts, and count toward Pending and Stats. Get a lane from
// Engine.Lane; there is one per distinct delay per engine.
type Lane struct {
	eng  *Engine
	d    Time
	buf  []entry // ring, len a power of two
	head int     // index of the oldest entry
	n    int     // entries stored (live or cancelled)
}

// initialLaneCap is a new lane's ring size; it doubles on demand and
// settles at the peak number of events in flight at the lane's delay.
const initialLaneCap = 64

// Lane returns the engine's lane for delay d, creating it on first use.
// Repeated calls with the same d return the same lane. A negative delay
// panics, as At does for a time in the past.
func (e *Engine) Lane(d Time) *Lane {
	if d < 0 {
		panic("sim: negative lane delay")
	}
	for _, l := range e.lanes {
		if l.d == d {
			return l
		}
	}
	l := &Lane{eng: e, d: d, buf: make([]entry, initialLaneCap)}
	e.lanes = append(e.lanes, l)
	return l
}

// Delay returns the lane's fixed scheduling delay.
func (l *Lane) Delay() Time { return l.d }

// Cap returns the lane's ring capacity in entries. It only grows, and in
// steady state it stays at the peak number of events in flight at the
// lane's delay, so a rising Cap on a stable workload means the ring is
// reallocating.
func (l *Lane) Cap() int { return len(l.buf) }

// After schedules fn to run the lane's delay after the current time. It
// is the lane counterpart of Engine.After and has the same contract,
// including allocation-free steady-state scheduling for pre-bound fn.
func (l *Lane) After(fn func()) EventID {
	e := l.eng
	en := e.newEntry(e.now+l.d, fn)
	if l.n == len(l.buf) {
		l.grow()
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = en
	l.n++
	e.laneScheduled++
	return EventID{idx: en.idx + 1, gen: en.gen}
}

// pop discards the head entry.
func (l *Lane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// grow doubles the ring, unwrapping it so the head lands at index 0.
func (l *Lane) grow() {
	buf := make([]entry, 2*len(l.buf))
	k := copy(buf, l.buf[l.head:])
	copy(buf[k:], l.buf[:l.head])
	l.buf = buf
	l.head = 0
}
