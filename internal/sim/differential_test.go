package sim

import (
	"math/rand"
	"testing"
)

// Differential test: the ladder-queue engine is exercised against a naive
// sorted-slice reference model with the exact same semantics — total order
// by (time, scheduling sequence), lazy-cancel-is-no-op-after-execution —
// through randomized schedule / cancel / Step / RunUntil sequences,
// including events that schedule children from inside their callbacks.
// Execution order, the clock, and every Stats counter must match.

// refModel is the reference scheduler: an unsorted slice scanned for the
// (at, seq) minimum on every execution. Obviously correct, O(n) per event.
type refModel struct {
	now                            Time
	seq                            uint64
	evs                            []refEv
	scheduled, executed, cancelled uint64
	order                          []int
}

type refEv struct {
	at  Time
	seq uint64
	id  int
}

func (m *refModel) schedule(at Time, id int) {
	m.evs = append(m.evs, refEv{at: at, seq: m.seq, id: id})
	m.seq++
	m.scheduled++
}

func (m *refModel) cancel(id int) {
	for i, ev := range m.evs {
		if ev.id == id {
			m.evs = append(m.evs[:i], m.evs[i+1:]...)
			m.cancelled++
			return
		}
	}
	// Already executed, already cancelled, or never scheduled: no-op,
	// matching Engine.Cancel on a stale handle.
}

func (m *refModel) minIdx() int {
	best := -1
	for i, ev := range m.evs {
		if best < 0 || ev.at < m.evs[best].at ||
			(ev.at == m.evs[best].at && ev.seq < m.evs[best].seq) {
			best = i
		}
	}
	return best
}

// exec runs the minimum event and returns its id (-1 if the queue is
// empty). spawn mirrors the engine-side callbacks' child scheduling.
func (m *refModel) exec(spawn func(parent int) (Time, int, bool)) int {
	i := m.minIdx()
	if i < 0 {
		return -1
	}
	ev := m.evs[i]
	m.evs = append(m.evs[:i], m.evs[i+1:]...)
	m.now = ev.at
	m.executed++
	m.order = append(m.order, ev.id)
	if d, child, ok := spawn(ev.id); ok {
		m.schedule(m.now+d, child)
	}
	return ev.id
}

func (m *refModel) runUntil(t Time, spawn func(int) (Time, int, bool)) {
	for {
		i := m.minIdx()
		if i < 0 || m.evs[i].at > t {
			break
		}
		m.exec(spawn)
	}
	if m.now < t {
		m.now = t
	}
}

// stepBefore runs the minimum event if it is strictly before end,
// mirroring Engine.StepBefore.
func (m *refModel) stepBefore(end Time, spawn func(int) (Time, int, bool)) bool {
	if i := m.minIdx(); i < 0 || m.evs[i].at >= end {
		return false
	}
	m.exec(spawn)
	return true
}

// next returns the minimum pending time, mirroring Engine.NextEventTime.
func (m *refModel) next() (Time, bool) {
	if i := m.minIdx(); i >= 0 {
		return m.evs[i].at, true
	}
	return 0, false
}

// diffOp is one engine operation of a differential run. arg is the
// operation's small non-negative parameter: a time offset, a lane or
// handle selector.
type diffOp struct {
	kind opKind
	arg  int
}

type opKind uint8

const (
	opAt         opKind = iota // At(now + arg)
	opLane                     // lanes[arg % nlanes].After
	opCancel                   // Cancel(handle of the (arg % n)-th scheduled id)
	opStep                     // Step
	opStepBefore               // StepBefore(now + arg)
	opRunUntil                 // RunUntil(now + arg)
	opNext                     // NextEventTime
	numOpKinds
)

// diffRun drives an Engine (with lanes for the given delays) and the
// refModel through the same operation stream, failing on the first
// divergence of clock, pending count, next-event time, execution order or
// Stats counters. Executing events schedule children deterministically
// from their id, through a lane or the ladder, so in-callback scheduling
// is covered on both paths.
type diffRun struct {
	tb    testing.TB
	e     *Engine
	m     *refModel
	lanes []*Lane

	engOrder      []int
	handles       map[int]EventID
	ids           []int
	nextID        int
	laneScheduled uint64
}

func newDiffRun(tb testing.TB, delays []Time) *diffRun {
	d := &diffRun{tb: tb, e: NewEngine(), m: &refModel{}, handles: map[int]EventID{}}
	for _, dl := range delays {
		d.lanes = append(d.lanes, d.e.Lane(dl))
	}
	return d
}

// spawn decides — purely from the parent id — whether an executing event
// schedules a child, after what delay, and through which lane (-1 for the
// ladder), so the engine callbacks and the model apply identical
// in-event scheduling.
func (d *diffRun) spawn(parent int) (Time, int, int, bool) {
	if parent >= 1_000_000_000 { // depth limit: children don't spawn
		return 0, 0, 0, false
	}
	h := uint32(parent)*2654435761 + 12345
	if h%3 != 0 {
		return 0, 0, 0, false
	}
	child := parent + 1_000_000_000
	if li := int(h/3) % (len(d.lanes) + 1); li < len(d.lanes) {
		return d.lanes[li].Delay(), child, li, true
	}
	return Time(h%500 + 1), child, -1, true
}

func (d *diffRun) modelSpawn(parent int) (Time, int, bool) {
	dl, child, _, ok := d.spawn(parent)
	return dl, child, ok
}

// schedule puts id on the engine at now+dl through lane li (or the
// ladder when li < 0).
func (d *diffRun) schedule(dl Time, id, li int) {
	fn := func() {
		d.engOrder = append(d.engOrder, id)
		if cd, child, cli, ok := d.spawn(id); ok {
			d.schedule(cd, child, cli)
		}
	}
	if li < 0 {
		d.handles[id] = d.e.At(d.e.Now()+dl, fn)
		return
	}
	d.handles[id] = d.lanes[li].After(fn)
	d.laneScheduled++
}

func (d *diffRun) newID() int {
	id := d.nextID
	d.nextID++
	d.ids = append(d.ids, id)
	return id
}

func (d *diffRun) apply(i int, op diffOp) {
	e, m := d.e, d.m
	switch op.kind {
	case opAt:
		id := d.newID()
		m.schedule(e.Now()+Time(op.arg), id)
		d.schedule(Time(op.arg), id, -1)
	case opLane:
		if len(d.lanes) == 0 {
			return
		}
		li := op.arg % len(d.lanes)
		id := d.newID()
		m.schedule(e.Now()+d.lanes[li].Delay(), id)
		d.schedule(0, id, li)
	case opCancel:
		if len(d.ids) > 0 {
			// May be live, executed, or already cancelled — the no-op
			// cases must agree too.
			id := d.ids[op.arg%len(d.ids)]
			e.Cancel(d.handles[id])
			m.cancel(id)
		}
	case opStep:
		ran := e.Step()
		if want := m.exec(d.modelSpawn) >= 0; ran != want {
			d.tb.Fatalf("op %d: Step ran=%v, model %v", i, ran, want)
		}
	case opStepBefore:
		end := e.Now() + Time(op.arg)
		if ran, want := e.StepBefore(end), m.stepBefore(end, d.modelSpawn); ran != want {
			d.tb.Fatalf("op %d: StepBefore(%v) ran=%v, model %v", i, end, ran, want)
		}
	case opRunUntil:
		h := e.Now() + Time(op.arg)
		e.RunUntil(h)
		m.runUntil(h, d.modelSpawn)
	case opNext:
		got, gok := e.NextEventTime()
		want, wok := m.next()
		if got != want || gok != wok {
			d.tb.Fatalf("op %d: NextEventTime = %v,%v, model %v,%v", i, got, gok, want, wok)
		}
	}
	if e.Now() != m.now {
		d.tb.Fatalf("op %d (%v): clock %v, model %v", i, op, e.Now(), m.now)
	}
	if e.Pending() != len(m.evs) {
		d.tb.Fatalf("op %d (%v): pending %d, model %d", i, op, e.Pending(), len(m.evs))
	}
}

// finish drains both schedulers and compares the full execution order and
// the lifetime counters.
func (d *diffRun) finish() {
	e, m := d.e, d.m
	e.Run()
	for m.exec(d.modelSpawn) >= 0 {
	}
	if len(d.engOrder) != len(m.order) {
		d.tb.Fatalf("engine ran %d events, model %d", len(d.engOrder), len(m.order))
	}
	for i := range d.engOrder {
		if d.engOrder[i] != m.order[i] {
			d.tb.Fatalf("execution order diverges at %d: engine id %d, model id %d",
				i, d.engOrder[i], m.order[i])
		}
	}
	st := e.Stats()
	if st.Scheduled != m.scheduled || st.Steps != m.executed || st.Cancelled != m.cancelled {
		d.tb.Fatalf("counters diverge: engine {sched %d exec %d cancel %d}, model {%d %d %d}",
			st.Scheduled, st.Steps, st.Cancelled, m.scheduled, m.executed, m.cancelled)
	}
	if st.LaneScheduled != d.laneScheduled {
		d.tb.Fatalf("LaneScheduled = %d, want %d", st.LaneScheduled, d.laneScheduled)
	}
	if st.Pending != len(m.evs) || st.Pending != 0 {
		d.tb.Fatalf("pending %d, model %d, want both 0 after Run", st.Pending, len(m.evs))
	}
}

// TestEngineDifferentialAgainstSortedSlice runs random operation streams:
// ladder schedules at random offsets, schedules through 1-3 lanes (delays
// that collide with ladder timestamps, including a zero delay and repeated
// delays that share a lane), cancels of live, executed and stale handles,
// and every way of advancing the clock.
func TestEngineDifferentialAgainstSortedSlice(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		delays := make([]Time, 1+trial%3)
		for i := range delays {
			delays[i] = Time(r.Intn(4) * 2500) // 0, 2500, 5000 or 7500
		}
		d := newDiffRun(t, delays)
		for i := 0; i < 50; i++ {
			d.apply(-1, diffOp{opAt, r.Intn(10_000)})
		}
		for op := 0; op < 3000; op++ {
			var o diffOp
			switch r.Intn(12) {
			case 0, 1:
				o = diffOp{opAt, r.Intn(10_000)}
			case 2, 3:
				o = diffOp{opLane, r.Intn(3)}
			case 4, 5:
				o = diffOp{opCancel, r.Intn(1 << 20)}
			case 6, 7:
				o = diffOp{opStep, 0}
			case 8:
				o = diffOp{opStepBefore, r.Intn(5_000)}
			case 9, 10:
				o = diffOp{opRunUntil, r.Intn(5_000)}
			case 11:
				o = diffOp{opNext, 0}
			}
			d.apply(op, o)
		}
		d.finish()
	}
}

// FuzzEngineLanes drives the same differential run from fuzzer bytes. The
// first byte picks 1-3 lanes and the next three their delays; the rest is
// read as (kind, arg) pairs. Run beyond the seed corpus with
// go test -fuzz FuzzEngineLanes ./internal/sim.
func FuzzEngineLanes(f *testing.F) {
	b := func(nlanes int, d0, d1, d2 byte, ops ...diffOp) []byte {
		out := []byte{byte(nlanes - 1), d0, d1, d2}
		for _, o := range ops {
			out = append(out, byte(o.kind), byte(o.arg))
		}
		return out
	}
	// A lane entry and a ladder entry at the same timestamp, in both
	// scheduling orders: seq alone must decide.
	f.Add(b(1, 10, 0, 0, diffOp{opAt, 10}, diffOp{opLane, 0}, diffOp{opStep, 0}, diffOp{opNext, 0}, diffOp{opStep, 0}))
	f.Add(b(1, 10, 0, 0, diffOp{opLane, 0}, diffOp{opAt, 10}, diffOp{opStep, 0}, diffOp{opNext, 0}, diffOp{opStep, 0}))
	// A cancelled lane head, seen by NextEventTime, StepBefore and Step.
	f.Add(b(1, 10, 0, 0, diffOp{opLane, 0}, diffOp{opAt, 15}, diffOp{opLane, 0}, diffOp{opCancel, 0},
		diffOp{opNext, 0}, diffOp{opStepBefore, 12}, diffOp{opStep, 0}, diffOp{opCancel, 2}, diffOp{opStep, 0}))
	// A lane that empties and refills, with the clock moved in between.
	f.Add(b(1, 5, 0, 0, diffOp{opLane, 0}, diffOp{opStep, 0}, diffOp{opStep, 0}, diffOp{opRunUntil, 20},
		diffOp{opLane, 0}, diffOp{opAt, 5}, diffOp{opLane, 0}, diffOp{opRunUntil, 10}, diffOp{opStep, 0}))
	// Three lanes, two sharing a delay, interleaved with ladder events.
	f.Add(b(3, 3, 7, 3, diffOp{opLane, 0}, diffOp{opLane, 1}, diffOp{opLane, 2}, diffOp{opAt, 3},
		diffOp{opAt, 7}, diffOp{opStepBefore, 4}, diffOp{opLane, 1}, diffOp{opRunUntil, 9}, diffOp{opNext, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 || len(data) > 4096 {
			return
		}
		delays := make([]Time, int(data[0])%3+1)
		for i := range delays {
			delays[i] = Time(data[1+i])
		}
		d := newDiffRun(t, delays)
		ops := data[4:]
		for i := 0; i+1 < len(ops); i += 2 {
			d.apply(i/2, diffOp{opKind(ops[i] % byte(numOpKinds)), int(ops[i+1])})
		}
		d.finish()
	})
}
