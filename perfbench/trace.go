package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"multitree/internal/obs"
)

// closureTolerance is the largest share of the traced lane time that may
// fall outside every layer and benchmark span before a traced run fails
// its closure check.
const closureTolerance = 0.05

// Span names starting with benchPrefix are the benchmark's own work
// (reference checks, hashing, forced collections); their self time is
// the explicit "other" bucket of the closure check.
const benchPrefix = "bench."

// span is one call into a layer, or one piece of the benchmark's own
// work, on one lane. Times are nanoseconds since the tracer's origin.
type span struct {
	name       string
	lane       int32
	parent     int32 // index into tracer.spans; -1 for a lane's root
	start, end int64
}

// tracer records spans in memory for one traced pass. Every lane is one
// goroutine; spans on a lane nest strictly. A nil *tracer records
// nothing, so untraced passes run the same code with tracing off.
type tracer struct {
	origin time.Time

	mu     sync.Mutex
	spans  []span
	lanes  int32
	counts map[string]float64
	errs   []string
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// lane is a goroutine's view of the tracer: its stack of open spans.
type lane struct {
	t     *tracer
	id    int32
	stack []int32
}

// newLane opens a lane whose root span (named root) lasts until end.
func (t *tracer) newLane(root string) *lane {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	l := &lane{t: t, id: t.lanes}
	t.lanes++
	t.mu.Unlock()
	l.begin(root)
	return l
}

// close ends the lane's root span; spans left open are trace errors.
func (l *lane) close() {
	if l == nil {
		return
	}
	if len(l.stack) != 1 {
		l.t.fail("lane %d closed with %d open spans", l.id, len(l.stack)-1)
	}
	if len(l.stack) > 0 {
		l.end(l.stack[0])
	}
}

// begin opens a span under the lane's innermost open span.
func (l *lane) begin(name string) int32 {
	if l == nil {
		return -1
	}
	t := l.t
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := int32(-1)
	if n := len(l.stack); n > 0 {
		parent = l.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, lane: l.id, parent: parent, start: now, end: -1})
	l.stack = append(l.stack, id)
	return id
}

// end closes span id, which must be the lane's innermost open span.
func (l *lane) end(id int32) {
	if l == nil {
		return
	}
	t := l.t
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(l.stack)
	if n == 0 || l.stack[n-1] != id {
		t.failLocked("span %q ended out of order on lane %d", t.spans[id].name, l.id)
		for i := n - 1; i >= 0; i-- {
			if l.stack[i] == id {
				l.stack = l.stack[:i]
				break
			}
		}
	} else {
		l.stack = l.stack[:n-1]
	}
	t.spans[id].end = now
}

// rename sets the name of a still-open span (cache lookups are named by
// the counters their end callback delivers).
func (l *lane) rename(id int32, name string) {
	if l == nil {
		return
	}
	l.t.mu.Lock()
	l.t.spans[id].name = name
	l.t.mu.Unlock()
}

// call runs f inside a span named name.
func (l *lane) call(name string, f func()) {
	id := l.begin(name)
	f()
	l.end(id)
}

// add accumulates a count returned by a layer call.
func (t *tracer) add(key string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[key] += v
	t.mu.Unlock()
}

func (l *lane) add(key string, v float64) {
	if l != nil {
		l.t.add(key, v)
	}
}

func (t *tracer) fail(format string, args ...any) {
	t.mu.Lock()
	t.failLocked(format, args...)
	t.mu.Unlock()
}

func (t *tracer) failLocked(format string, args ...any) {
	t.errs = append(t.errs, fmt.Sprintf(format, args...))
}

// observer adapts the lane to obs.PlanObserver, turning the planner's
// phase callbacks into spans nested under the layer call that caused
// them.
func (l *lane) observer() obs.PlanObserver {
	if l == nil {
		return nil
	}
	return &laneObserver{l: l}
}

type openPhase struct {
	phase obs.PlanPhase
	id    int32
}

type laneObserver struct {
	l    *lane
	mu   sync.Mutex
	open []openPhase
}

func (o *laneObserver) PhaseStart(ph obs.PlanPhase) {
	id := o.l.begin("phase." + ph.String())
	o.mu.Lock()
	o.open = append(o.open, openPhase{ph, id})
	o.mu.Unlock()
}

func (o *laneObserver) PhaseEnd(ph obs.PlanPhase, c obs.PlanCounters) {
	o.mu.Lock()
	id := int32(-1)
	for i := len(o.open) - 1; i >= 0; i-- {
		if o.open[i].phase == ph {
			id = o.open[i].id
			o.open = append(o.open[:i], o.open[i+1:]...)
			break
		}
	}
	o.mu.Unlock()
	if id < 0 {
		o.l.t.fail("phase %s ended without starting", ph)
		return
	}
	o.l.rename(id, phaseSpan(ph, c))
	o.l.end(id)
	l := o.l
	switch ph {
	case obs.PhaseTreeGrowth:
		l.add("core.searches", float64(c.Searches))
		l.add("core.search_misses", float64(c.SearchMisses))
	case obs.PhaseShardMerge:
		l.add("core.shard_turns", float64(c.ShardTurns))
		l.add("core.shard_replays", float64(c.ShardReplays))
	case obs.PhaseLowering:
		l.add("collective.transfers", float64(c.Transfers))
	case obs.PhaseNICompile:
		l.add("ni.table_entries", float64(c.TableEntries))
	case obs.PhaseDecode:
		l.add("collective.decode_s", float64(c.DecodeNanos)/1e9)
	case obs.PhaseValidate:
		l.add("collective.verify_s", float64(c.VerifyNanos)/1e9)
	case obs.PhaseCacheLookup:
		switch {
		case c.CacheHits > 0 && c.MemCacheHits == 0:
			l.add("plancache.bytes_read", float64(c.CacheBytes))
		case c.CacheHits == 0 && c.CacheMisses == 0:
			l.add("plancache.bytes_written", float64(c.CacheBytes))
		}
	}
}

func (o *laneObserver) PlanProgress(obs.PlanPhase, int64, int64) {}
func (o *laneObserver) Pipeline(int, int)                        {}

// phaseSpan names a planner phase's span after the layer it measures.
func phaseSpan(ph obs.PlanPhase, c obs.PlanCounters) string {
	switch ph {
	case obs.PhaseTreeGrowth, obs.PhaseShardMerge:
		return "core.grow"
	case obs.PhaseVariantScore:
		return "core.score"
	case obs.PhaseLowering:
		return "collective.lower"
	case obs.PhaseNICompile:
		return "ni.compile"
	case obs.PhaseDecode, obs.PhaseValidate:
		return "collective.load"
	case obs.PhaseCacheLookup:
		switch {
		case c.MemCacheHits > 0:
			return "plancache.mem_get"
		case c.CacheHits > 0:
			return "plancache.disk_get"
		case c.CacheMisses > 0:
			return "plancache.miss"
		}
		return "plancache.store"
	}
	return "phase." + ph.String()
}

// breakdown is a traced pass split by layer.
type breakdown struct {
	self        map[string]float64 // seconds of self time per span name
	laneSeconds float64            // summed duration of every lane root
	other       float64            // self time of the benchmark's own spans
	unaccounted float64            // lane-root self time: inside no span
}

// breakdown computes every span's self time (duration minus its
// children) and checks closure: layer self times plus the benchmark's
// own spans must cover the lanes' time to within closureTolerance.
func (t *tracer) breakdown() (breakdown, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b := breakdown{self: map[string]float64{}}
	children := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.end < 0 {
			t.failLocked("span %q never ended", s.name)
			continue
		}
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		dur := s.end - s.start
		self := dur - children[i]
		if self < -int64(time.Microsecond) {
			t.failLocked("span %q has children longer than itself", s.name)
		}
		sec := float64(self) / 1e9
		switch {
		case s.parent < 0:
			b.laneSeconds += float64(dur) / 1e9
			b.unaccounted += sec
		case strings.HasPrefix(s.name, benchPrefix):
			b.other += sec
		default:
			b.self[s.name] += sec
		}
	}
	if len(t.errs) > 0 {
		return b, fmt.Errorf("trace: %s", strings.Join(t.errs, "; "))
	}
	if b.laneSeconds <= 0 {
		return b, fmt.Errorf("trace: no lane time recorded")
	}
	if share := b.unaccounted / b.laneSeconds; share > closureTolerance {
		return b, fmt.Errorf("trace: closure failed: %.1f%% of %.3f s lane time is in no span (tolerance %.0f%%)",
			100*share, b.laneSeconds, 100*closureTolerance)
	}
	return b, nil
}

// writeChrome writes the spans as a Chrome/Perfetto trace, one thread
// per lane.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int32   `json:"tid"`
	}
	t.mu.Lock()
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: s.lane})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs})
}
