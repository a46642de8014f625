// Package sim provides a minimal discrete-event simulation engine used by
// the packet network simulator. Time is measured in integer cycles of the
// router clock (1 GHz in the paper's configuration, so one cycle is one
// nanosecond).
//
// The engine is built for an allocation-free steady state. Its event queue
// has two tiers that together dispatch events in (At, seq) order, where
// seq is the order in which events were scheduled:
//
//   - The near tier is a timing wheel of W per-cycle FIFO buckets covering
//     [Now, Now+W). Its nodes live in an int32-indexed pool with a free
//     list, and a bitmap of non-empty buckets finds the next busy cycle in
//     a few word scans. Each bucket holds exactly one cycle's events in
//     insertion order, so scheduling and dispatch are O(1) with no
//     comparisons.
//   - The far tier is a value-based 4-ary min-heap ordered by (At, seq)
//     that takes events W or more cycles ahead (lockstep NOP gaps, fault
//     activations).
//
// An event in the heap for cycle T was queued while Now <= T-W, and any
// event in T's bucket was queued while Now > T-W, so every heap event for
// T precedes every bucket event for T in schedule order. On equal times
// the heap head therefore runs first, and no event ever migrates between
// tiers. Scheduling allocates nothing once the pool and the heap's
// backing array have grown to the simulation's high-water mark.
//
// Hot paths schedule typed events (a Kind plus two int32 arguments) that
// the engine hands to a single Dispatch function, avoiding both closure
// allocation and interface boxing; the closure-based Schedule/After API
// remains as a compatibility shim for cold paths and tests.
package sim

import (
	"math/bits"

	"multitree/internal/obs"
)

// Time is a simulation timestamp in clock cycles.
type Time uint64

// Kind identifies a typed event for the dispatch fast path. Kind values
// are defined by the engine's user; kindClosure (0) is reserved for
// events scheduled through the closure shim.
type Kind uint8

const kindClosure Kind = 0

// The wheel spans wheelSize cycles. One 272 B packet serializes in 17
// cycles at 16 B/cycle and then crosses a 150-cycle link, so 4096 cycles
// cover the common delays many times over.
const (
	wheelSize  = 1 << 12
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// event is one far-tier (heap) record. Typed events carry (kind, a, b)
// and a nil fn; closure events carry fn with kind == kindClosure. seq
// breaks ties so that events scheduled earlier at the same cycle run
// first, keeping runs deterministic regardless of heap shape.
type event struct {
	at   Time
	seq  uint64
	fn   func()
	kind Kind
	a, b int32
}

// wnode is one near-tier record, linked into its cycle's bucket (or the
// free list) through next. Its cycle is implied by the bucket.
type wnode struct {
	fn   func()
	a, b int32
	next int32
	kind Kind
}

// wheel is the near tier. head/tail are meaningful only for buckets whose
// bit is set. Pool slot 0 is never used, so index 0 means "none" and the
// zero value is an empty wheel.
type wheel struct {
	nodes []wnode
	free  int32 // head of the free list threaded through next
	n     int   // queued events
	head  [wheelSize]int32
	tail  [wheelSize]int32
	bits  [wheelWords]uint64
}

// push appends an event to the bucket of cycle at, which the caller
// guarantees lies in [now, now+wheelSize).
func (w *wheel) push(at Time, fn func(), kind Kind, a, b int32) {
	id := w.free
	if id != 0 {
		w.free = w.nodes[id].next
		w.nodes[id] = wnode{fn: fn, kind: kind, a: a, b: b}
	} else {
		if len(w.nodes) == 0 {
			w.nodes = append(w.nodes, wnode{})
		}
		id = int32(len(w.nodes))
		w.nodes = append(w.nodes, wnode{fn: fn, kind: kind, a: a, b: b})
	}
	i := int(at & wheelMask)
	if bit := uint64(1) << (i & 63); w.bits[i>>6]&bit == 0 {
		w.bits[i>>6] |= bit
		w.head[i] = id
	} else {
		w.nodes[w.tail[i]].next = id
	}
	w.tail[i] = id
	w.n++
}

// pop removes and returns the first event of cycle at's bucket, which
// must be non-empty. The freed slot's closure is cleared so the pool
// never pins dead captures.
func (w *wheel) pop(at Time) wnode {
	i := int(at & wheelMask)
	id := w.head[i]
	nd := w.nodes[id]
	if id == w.tail[i] {
		w.bits[i>>6] &^= 1 << (i & 63)
	} else {
		w.head[i] = nd.next
	}
	w.nodes[id] = wnode{next: w.free}
	w.free = id
	w.n--
	return nd
}

// next returns the earliest cycle with a queued event. The wheel must be
// non-empty and every queued event must lie in [now, now+wheelSize).
func (w *wheel) next(now Time) Time {
	i := int(now & wheelMask)
	word := i >> 6
	if m := w.bits[word] >> (i & 63); m != 0 {
		return now + Time(bits.TrailingZeros64(m))
	}
	// base is the cycle of bit 0 in the word after now's. The last
	// iteration revisits now's own word, whose low bits are the cycles
	// just short of now+wheelSize.
	base := now + Time(64-i&63)
	for k := 1; k <= wheelWords; k++ {
		if m := w.bits[(word+k)&(wheelWords-1)]; m != 0 {
			return base + Time(bits.TrailingZeros64(m))
		}
		base += 64
	}
	panic("sim: wheel count and bitmap disagree")
}

// reset empties the wheel, keeping the pool's backing array.
func (w *wheel) reset() {
	clear(w.nodes)
	w.nodes = w.nodes[:0]
	w.free = 0
	w.n = 0
	w.bits = [wheelWords]uint64{}
}

// Engine is a discrete-event simulator driven by a timing wheel backed by
// a 4-ary min-heap for far events. The zero value is ready to use.
type Engine struct {
	now    Time
	nextID uint64 // seq of the next far-tier event
	heap   []event
	wheel  wheel

	// Dispatch receives typed events scheduled with ScheduleKind/AfterKind.
	// It must be set before the first typed event fires; closure-only users
	// can leave it nil.
	Dispatch func(kind Kind, a, b int32)

	// Trace, when non-nil, receives an EvEngineQueue sample (pending-event
	// count) after every executed event. The nil default costs one branch
	// per event and nothing else.
	Trace obs.Tracer
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Schedule enqueues fn to run at absolute time at. Scheduling in the past
// (at < Now) runs the event at the current time instead; this keeps
// zero-latency feedback loops well defined.
func (e *Engine) Schedule(at Time, fn func()) {
	e.enqueue(at, fn, kindClosure, 0, 0)
}

// After enqueues fn to run delay cycles from now.
func (e *Engine) After(delay Time, fn func()) {
	e.Schedule(e.now+delay, fn)
}

// ScheduleKind enqueues a typed event for Dispatch at absolute time at,
// with the same past-clamping as Schedule. It allocates nothing once the
// queue's storage has reached the run's high-water mark.
func (e *Engine) ScheduleKind(at Time, kind Kind, a, b int32) {
	e.enqueue(at, nil, kind, a, b)
}

// AfterKind enqueues a typed event delay cycles from now.
func (e *Engine) AfterKind(delay Time, kind Kind, a, b int32) {
	e.enqueue(e.now+delay, nil, kind, a, b)
}

// enqueue clamps at to Now and files the event in the wheel if it falls
// inside the wheel's window, else in the heap.
func (e *Engine) enqueue(at Time, fn func(), kind Kind, a, b int32) {
	if at < e.now {
		at = e.now
	}
	if at-e.now < wheelSize {
		e.wheel.push(at, fn, kind, a, b)
		return
	}
	e.push(event{at: at, seq: e.nextID, fn: fn, kind: kind, a: a, b: b})
	e.nextID++
}

// Pending reports the number of events waiting to run in both tiers.
func (e *Engine) Pending() int { return len(e.heap) + e.wheel.n }

// Reset returns the engine to time zero with an empty queue, keeping the
// queue's backing arrays (and Dispatch/Trace) so a reused engine re-runs
// without reallocating. Sequence numbering restarts, so a reset run is
// cycle- and order-identical to a fresh one.
func (e *Engine) Reset() {
	for i := range e.heap {
		e.heap[i].fn = nil
	}
	e.heap = e.heap[:0]
	e.wheel.reset()
	e.now = 0
	e.nextID = 0
}

// peek returns the time of the earliest pending event and whether it is
// the wheel's; ok is false when both tiers are empty. On equal times the
// heap head comes first (see the package comment).
func (e *Engine) peek() (at Time, near, ok bool) {
	if e.wheel.n > 0 {
		at = e.wheel.next(e.now)
		if len(e.heap) == 0 || at < e.heap[0].at {
			return at, true, true
		}
	}
	if len(e.heap) == 0 {
		return 0, false, false
	}
	return e.heap[0].at, false, true
}

// fire dequeues the event peek reported, advances the clock to it and
// runs it.
func (e *Engine) fire(at Time, near bool) {
	var (
		fn   func()
		kind Kind
		a, b int32
	)
	if near {
		nd := e.wheel.pop(at)
		fn, kind, a, b = nd.fn, nd.kind, nd.a, nd.b
	} else {
		ev := e.heap[0]
		e.pop()
		fn, kind, a, b = ev.fn, ev.kind, ev.a, ev.b
	}
	e.now = at
	if fn != nil {
		fn()
	} else {
		e.Dispatch(kind, a, b)
	}
	if e.Trace != nil {
		e.Trace.Emit(obs.Event{
			Kind: obs.EvEngineQueue, At: float64(e.now), Bytes: int64(e.Pending()),
		})
	}
}

// Step runs the single earliest pending event and returns true, or returns
// false if the queue is empty.
func (e *Engine) Step() bool {
	at, near, ok := e.peek()
	if ok {
		e.fire(at, near)
	}
	return ok
}

// Run executes events until the queue drains and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil executes events with timestamps <= deadline. It returns true if
// the queue drained, false if it stopped at the deadline with work pending.
func (e *Engine) RunUntil(deadline Time) bool {
	for {
		at, near, ok := e.peek()
		if !ok {
			return true
		}
		if at > deadline {
			return false
		}
		e.fire(at, near)
	}
}

// less orders heap records by (at, seq) — a strict total order, so the
// far tier's dispatch sequence is independent of heap arity and layout.
func (e *Engine) less(i, j int) bool {
	if e.heap[i].at != e.heap[j].at {
		return e.heap[i].at < e.heap[j].at
	}
	return e.heap[i].seq < e.heap[j].seq
}

// push appends the record and sifts it up the 4-ary heap.
func (e *Engine) push(ev event) {
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

// pop removes the minimum record, clearing the vacated slot's closure so
// the backing array never pins dead captures.
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap[n].fn = nil
	e.heap = e.heap[:n]
	if n > 1 {
		e.siftDown()
	}
}

// siftDown restores heap order from the root of the 4-ary heap. Four-way
// branching halves the tree depth of a binary heap, trading two extra
// comparisons per level for far fewer cache-missing swaps.
func (e *Engine) siftDown() {
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
