package sim

import (
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	var e Engine
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	if end := e.Run(); end != 30 {
		t.Errorf("final time = %d, want 30", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events ran in order %v", got)
	}
}

func TestTieBreakFIFO(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered: %v", got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	var e Engine
	var at []Time
	e.After(10, func() {
		at = append(at, e.Now())
		e.After(5, func() { at = append(at, e.Now()) })
	})
	e.Run()
	if len(at) != 2 || at[0] != 10 || at[1] != 15 {
		t.Errorf("nested After times = %v, want [10 15]", at)
	}
}

func TestSchedulePastClampsToNow(t *testing.T) {
	var e Engine
	ran := Time(0)
	e.Schedule(100, func() {
		e.Schedule(50, func() { ran = e.Now() })
	})
	e.Run()
	if ran != 100 {
		t.Errorf("past event ran at %d, want clamped to 100", ran)
	}
}

func TestRunUntil(t *testing.T) {
	var e Engine
	count := 0
	for i := Time(1); i <= 10; i++ {
		e.Schedule(i*10, func() { count++ })
	}
	if drained := e.RunUntil(50); drained {
		t.Error("RunUntil(50) claims drained with events pending")
	}
	if count != 5 {
		t.Errorf("ran %d events by t=50, want 5", count)
	}
	if e.Pending() != 5 {
		t.Errorf("%d pending, want 5", e.Pending())
	}
	if !e.RunUntil(1000) {
		t.Error("RunUntil(1000) should drain")
	}
	if count != 10 {
		t.Errorf("ran %d events total, want 10", count)
	}
}

func TestStepEmpty(t *testing.T) {
	var e Engine
	if e.Step() {
		t.Error("Step on empty queue returned true")
	}
}

// TestTimeMonotonic is a property test: however events are scheduled, the
// engine dispatches them in nondecreasing time order.
func TestTimeMonotonic(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		var seen []Time
		for _, d := range delays {
			at := Time(d)
			e.Schedule(at, func() { seen = append(seen, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypedDispatch(t *testing.T) {
	var e Engine
	type rec struct {
		kind Kind
		a, b int32
		at   Time
	}
	var got []rec
	e.Dispatch = func(kind Kind, a, b int32) {
		got = append(got, rec{kind, a, b, e.Now()})
	}
	e.ScheduleKind(20, 2, 7, 8)
	e.ScheduleKind(10, 1, 5, 6)
	e.AfterKind(5, 3, 1, 2)
	if end := e.Run(); end != 20 {
		t.Errorf("final time = %d, want 20", end)
	}
	want := []rec{{3, 1, 2, 5}, {1, 5, 6, 10}, {2, 7, 8, 20}}
	if len(got) != len(want) {
		t.Fatalf("dispatched %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTypedClosureInterleaving: a shared seq counter keeps typed and
// closure events in exact scheduling order at equal timestamps.
func TestTypedClosureInterleaving(t *testing.T) {
	var e Engine
	var got []int32
	e.Dispatch = func(kind Kind, a, b int32) { got = append(got, a) }
	e.ScheduleKind(5, 1, 0, 0)
	e.Schedule(5, func() { got = append(got, 1) })
	e.ScheduleKind(5, 1, 2, 0)
	e.Schedule(5, func() { got = append(got, 3) })
	e.Run()
	for i, v := range got {
		if v != int32(i) {
			t.Fatalf("mixed same-time events reordered: %v", got)
		}
	}
}

func TestTypedPastClampsToNow(t *testing.T) {
	var e Engine
	ran := Time(0)
	e.Dispatch = func(kind Kind, a, b int32) { ran = e.Now() }
	e.Schedule(100, func() { e.ScheduleKind(50, 1, 0, 0) })
	e.Run()
	if ran != 100 {
		t.Errorf("past typed event ran at %d, want clamped to 100", ran)
	}
}

// TestResetDeterminism: a reset engine replays the same schedule with the
// same dispatch order and final time, without growing its queue storage.
func TestResetDeterminism(t *testing.T) {
	var e Engine
	run := func() []int32 {
		var got []int32
		e.Dispatch = func(kind Kind, a, b int32) {
			got = append(got, a)
			if a < 20 {
				e.AfterKind(Time(a%3+1), 1, a+10, 0)
			}
		}
		for i := int32(0); i < 8; i++ {
			e.ScheduleKind(Time(i%4), 1, i, 0)
		}
		e.Run()
		return got
	}
	first := run()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 {
		t.Fatalf("reset left now=%d pending=%d", e.Now(), e.Pending())
	}
	second := run()
	if len(first) != len(second) {
		t.Fatalf("replay ran %d events, first run %d", len(second), len(first))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("replay diverged at event %d: %d vs %d", i, second[i], first[i])
		}
	}
}

// TestTypedScheduleZeroAlloc: after warm-up, the typed schedule/run loop
// performs no allocations.
func TestTypedScheduleZeroAlloc(t *testing.T) {
	var e Engine
	e.Dispatch = func(kind Kind, a, b int32) {
		if kind == 1 && a > 0 {
			e.AfterKind(3, 1, a-1, 0)
		}
	}
	// load schedules near events into the wheel and far events (W or more
	// cycles ahead) into the overflow heap.
	load := func() {
		for i := 0; i < 200; i++ {
			e.ScheduleKind(Time(i%16), 1, int32(i%8), 0)
			if i%4 == 0 {
				e.ScheduleKind(wheelSize+Time(i*37), 1, int32(i%8), 0)
			}
		}
	}
	// Warm up the wheel's node pool and the heap's backing array.
	load()
	e.Run()
	allocs := testing.AllocsPerRun(100, func() {
		e.Reset()
		load()
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("typed schedule/run loop allocates %.1f per run, want 0", allocs)
	}
}

// TestHeapOrderProperty: mixed typed and closure events at random times
// always dispatch in nondecreasing (time, schedule-order) order.
func TestHeapOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		var e Engine
		type stamp struct {
			at  Time
			seq int32
		}
		var seen []stamp
		e.Dispatch = func(kind Kind, a, b int32) {
			seen = append(seen, stamp{e.Now(), a})
		}
		for i, d := range delays {
			if i%2 == 0 {
				e.ScheduleKind(Time(d), 1, int32(i), 0)
			} else {
				i := int32(i)
				at := Time(d)
				e.Schedule(at, func() { seen = append(seen, stamp{e.Now(), i}) })
			}
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i].at < seen[i-1].at {
				return false
			}
			if seen[i].at == seen[i-1].at && seen[i].seq < seen[i-1].seq {
				return false
			}
		}
		return len(seen) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
