package sim

import (
	"math/rand"
	"testing"
)

// Cancel-heavy workloads (retransmit timers, pacing timers) must not grow
// the event arena: Cancel releases the slot (and its callback reference)
// immediately, so with a bounded number of outstanding timers the arena
// stays bounded no matter how many schedule/cancel rounds run. Only the
// 24-byte queue entries are reaped lazily, and those drain as simulated
// time passes their timestamps.
func TestEngineCancelChurnBoundedArena(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(42))
	const live = 64 // timers outstanding at any moment
	pending := make([]EventID, 0, live+1)
	for round := 0; round < 10000; round++ {
		ev := e.After(Time(r.Intn(1000)+1), func() {})
		pending = append(pending, ev)
		// Cancel a random outstanding timer most rounds, mimicking a
		// retransmit timer rescheduled on every ACK.
		if len(pending) > live {
			i := r.Intn(len(pending))
			e.Cancel(pending[i])
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
		if e.Pending() != len(pending) {
			t.Fatalf("round %d: Pending() = %d, want %d", round, e.Pending(), len(pending))
		}
		if got := e.Stats().EventAllocs; got > live+1 {
			t.Fatalf("round %d: %d event slots allocated with only %d timers live (slot leak)",
				round, got, live+1)
		}
	}
	if e.Stats().Cancelled == 0 {
		t.Fatal("churn cancelled nothing; test is vacuous")
	}
	e.Run()
	if e.Pending() != 0 {
		t.Fatalf("after Run: pending=%d, want 0", e.Pending())
	}
}

// Pending must stay consistent through interleaved schedule, cancel, and
// execution — it is maintained incrementally, not recounted.
func TestEnginePendingTracksLiveThroughExecution(t *testing.T) {
	e := NewEngine()
	r := rand.New(rand.NewSource(7))
	var outstanding []EventID
	executed := 0
	for i := 0; i < 5000; i++ {
		switch r.Intn(3) {
		case 0:
			outstanding = append(outstanding, e.After(Time(r.Intn(100)+1), func() {}))
		case 1:
			if len(outstanding) > 0 {
				j := r.Intn(len(outstanding))
				e.Cancel(outstanding[j])
				e.Cancel(outstanding[j]) // idempotent
				outstanding = append(outstanding[:j], outstanding[j+1:]...)
			}
		case 2:
			if e.Step() {
				executed++
			}
		}
		// The engine cannot tell us which outstanding handle just ran, so
		// derive the expected live count from the lifetime counters
		// instead: scheduled - executed - cancelled.
		st := e.Stats()
		want := int(st.Scheduled) - int(st.Steps) - int(st.Cancelled)
		if e.Pending() != want {
			t.Fatalf("op %d: Pending()=%d, want %d (scheduled=%d steps=%d cancelled=%d)",
				i, e.Pending(), want, st.Scheduled, st.Steps, st.Cancelled)
		}
		if int(st.Steps) != executed {
			t.Fatalf("op %d: Steps=%d, want %d", i, st.Steps, executed)
		}
	}
}

func TestEngineStatsCounts(t *testing.T) {
	e := NewEngine()
	var evs []EventID
	for i := 0; i < 10; i++ {
		evs = append(evs, e.At(Time(i+1), func() {}))
	}
	// Lane events count exactly like ladder events, plus LaneScheduled.
	l := e.Lane(5)
	for i := 0; i < 4; i++ {
		evs = append(evs, l.After(func() {}))
	}
	e.Cancel(evs[3])
	e.Cancel(evs[7])
	e.Cancel(evs[7]) // double-cancel must not double-count
	e.Cancel(evs[11])
	e.Run()

	st := e.Stats()
	if st.Scheduled != 14 {
		t.Errorf("Scheduled = %d, want 14", st.Scheduled)
	}
	if st.LaneScheduled != 4 {
		t.Errorf("LaneScheduled = %d, want 4", st.LaneScheduled)
	}
	if st.Cancelled != 3 {
		t.Errorf("Cancelled = %d, want 3", st.Cancelled)
	}
	if st.Steps != 11 {
		t.Errorf("Steps = %d, want 11", st.Steps)
	}
	if st.Pending != 0 {
		t.Errorf("Pending = %d, want 0", st.Pending)
	}
	if st.PeakPending != 14 {
		t.Errorf("PeakPending = %d, want 14", st.PeakPending)
	}
	if st.EventAllocs != 14 {
		t.Errorf("EventAllocs = %d, want 14 (no reuse possible before first free)", st.EventAllocs)
	}
}

// Executed events must free their slots for reuse: a schedule/run cycle
// with one event outstanding at a time allocates exactly one slot.
func TestEngineSlotReuseAcrossExecution(t *testing.T) {
	e := NewEngine()
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < 1000 {
			e.After(10, chain)
		}
	}
	e.At(0, chain)
	e.Run()
	if n != 1000 {
		t.Fatalf("chain ran %d times, want 1000", n)
	}
	if got := e.Stats().EventAllocs; got != 1 {
		t.Fatalf("EventAllocs = %d, want 1 (slot must be recycled each step)", got)
	}
}
