package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// queue is the engine API the differential test drives, implemented by
// both Engine and the reference heap.
type queue interface {
	Now() Time
	Schedule(at Time, fn func())
	ScheduleKind(at Time, kind Kind, a, b int32)
	Step() bool
	RunUntil(deadline Time) bool
	Pending() int
	Reset()
}

// dispatchRec is one observation: a dispatched event (id >= 0) with the
// clock and queue depth it saw, or a loop checkpoint (id < 0) taken
// after a Step, RunUntil or Reset.
type dispatchRec struct {
	at      Time
	id      int32
	pending int
}

// runQueueProgram runs the random event program seed describes on q and
// returns everything it observed. The program draws every choice from
// its own generator in dispatch order, so two queues that dispatch
// identically see identical programs. It mixes typed and closure events,
// delays from 0 to 3W (so both tiers and the boundary between them),
// nested scheduling from inside dispatch at Now and in the past,
// RunUntil deadlines, and Resets while events are pending.
func runQueueProgram(q queue, setDispatch func(func(Kind, int32, int32)), seed int64) []dispatchRec {
	rng := rand.New(rand.NewSource(seed))
	var (
		out    []dispatchRec
		nextID int32
		budget = 300 + rng.Intn(300)
		fire   func(id int32)
	)
	delay := func() Time {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return Time(rng.Intn(200))
		case 2:
			return wheelSize - 3 + Time(rng.Intn(6)) // straddle the tier boundary
		default:
			return Time(rng.Intn(3*wheelSize + 1))
		}
	}
	schedule := func(at Time) {
		if budget == 0 {
			return
		}
		budget--
		id := nextID
		nextID++
		if rng.Intn(2) == 0 {
			q.ScheduleKind(at, 1, id, 0)
		} else {
			q.Schedule(at, func() { fire(id) })
		}
	}
	fire = func(id int32) {
		out = append(out, dispatchRec{q.Now(), id, q.Pending()})
		for k := rng.Intn(4); k > 0; k-- {
			now := q.Now()
			switch rng.Intn(5) {
			case 0:
				schedule(now)
			case 1:
				schedule(now - min(now, Time(rng.Intn(300)))) // in the past: clamped
			default:
				schedule(now + delay())
			}
		}
	}
	setDispatch(func(kind Kind, a, b int32) { fire(a) })
	seedEvents := func() {
		for i := 1 + rng.Intn(24); i > 0; i-- {
			schedule(q.Now() + delay())
		}
	}
	checkpoint := func() { out = append(out, dispatchRec{q.Now(), -1, q.Pending()}) }

	seedEvents()
	resets := 2
	for q.Pending() > 0 {
		switch r := rng.Intn(16); {
		case r == 0 && resets > 0:
			resets--
			q.Reset()
			budget += 100
			checkpoint()
			seedEvents()
		case r < 3:
			q.RunUntil(q.Now() + delay())
			checkpoint()
		default:
			q.Step()
			checkpoint()
		}
	}
	return out
}

// TestWheelMatchesReferenceHeap is the differential property: for random
// event programs, the two-tier queue dispatches the same (Now, id)
// sequence as the single (at, seq) heap it replaced, and reports the same
// Pending() after every step.
func TestWheelMatchesReferenceHeap(t *testing.T) {
	f := func(seed int64) bool {
		var got, want []dispatchRec
		{
			var e Engine
			got = runQueueProgram(&e, func(d func(Kind, int32, int32)) { e.Dispatch = d }, seed)
		}
		{
			var e refEngine
			want = runQueueProgram(&e, func(d func(Kind, int32, int32)) { e.Dispatch = d }, seed)
		}
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Logf("seed %d: observation %d = %+v, reference %+v", seed, i, got[i], want[i])
				return false
			}
		}
		if len(got) != len(want) {
			t.Logf("seed %d: %d observations, reference %d", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestOverflowHeadRunsFirst: an event that entered the overflow heap for
// cycle T runs before events filed in T's wheel bucket later, as its
// earlier schedule order requires.
func TestOverflowHeadRunsFirst(t *testing.T) {
	var e Engine
	var got []int32
	e.Dispatch = func(kind Kind, a, b int32) {
		got = append(got, a)
		if a == 0 {
			e.ScheduleKind(wheelSize+5, 1, 2, 0) // now inside the window
		}
	}
	e.ScheduleKind(wheelSize+5, 1, 1, 0) // W+5 cycles ahead: overflow tier
	e.ScheduleKind(10, 1, 0, 0)
	if len(e.heap) != 1 || e.wheel.n != 1 {
		t.Fatalf("tiers hold heap=%d wheel=%d, want 1 and 1", len(e.heap), e.wheel.n)
	}
	e.Run()
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Errorf("dispatch order %v, want [0 1 2]", got)
	}
	if e.Now() != wheelSize+5 {
		t.Errorf("final time %d, want %d", e.Now(), wheelSize+5)
	}
}
