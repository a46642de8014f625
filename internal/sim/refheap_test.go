package sim

import "multitree/internal/obs"

// refEngine is the single 4-ary (at, seq) heap the engine used before the
// timing wheel, kept as the reference the differential test compares the
// two-tier queue against. It is a verbatim copy of the old Engine's queue
// logic; do not optimise it.
type refEngine struct {
	now    Time
	nextID uint64
	heap   []event

	Dispatch func(kind Kind, a, b int32)
	Trace    obs.Tracer
}

func (e *refEngine) Now() Time { return e.now }

func (e *refEngine) Schedule(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.push(event{at: at, seq: e.nextID, fn: fn})
	e.nextID++
}

func (e *refEngine) After(delay Time, fn func()) { e.Schedule(e.now+delay, fn) }

func (e *refEngine) ScheduleKind(at Time, kind Kind, a, b int32) {
	if at < e.now {
		at = e.now
	}
	e.push(event{at: at, seq: e.nextID, kind: kind, a: a, b: b})
	e.nextID++
}

func (e *refEngine) AfterKind(delay Time, kind Kind, a, b int32) {
	e.ScheduleKind(e.now+delay, kind, a, b)
}

func (e *refEngine) Pending() int { return len(e.heap) }

func (e *refEngine) Reset() {
	for i := range e.heap {
		e.heap[i].fn = nil
	}
	e.heap = e.heap[:0]
	e.now = 0
	e.nextID = 0
}

func (e *refEngine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap[0]
	e.pop()
	e.now = ev.at
	if ev.fn != nil {
		ev.fn()
	} else {
		e.Dispatch(ev.kind, ev.a, ev.b)
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{
			Kind: obs.EvEngineQueue, At: float64(e.now), Bytes: int64(len(e.heap)),
		})
	}
	return true
}

func (e *refEngine) Run() Time {
	for e.Step() {
	}
	return e.now
}

func (e *refEngine) RunUntil(deadline Time) bool {
	for len(e.heap) > 0 {
		if e.heap[0].at > deadline {
			return false
		}
		e.Step()
	}
	return true
}

func (e *refEngine) less(i, j int) bool {
	if e.heap[i].at != e.heap[j].at {
		return e.heap[i].at < e.heap[j].at
	}
	return e.heap[i].seq < e.heap[j].seq
}

func (e *refEngine) push(ev event) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !e.less(i, parent) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *refEngine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n].fn = nil
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown()
	}
}

func (e *refEngine) siftDown() {
	n := len(e.heap)
	i := 0
	for {
		first := i<<2 + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.less(c, min) {
				min = c
			}
		}
		if !e.less(min, i) {
			return
		}
		e.heap[i], e.heap[min] = e.heap[min], e.heap[i]
		i = min
	}
}
