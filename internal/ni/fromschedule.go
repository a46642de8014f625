package ni

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// maxHeight is the tallest tree a table can encode: Gather entries issue
// at up to twice the height, and the step counter is 16 bits (EntryBits).
const maxHeight = math.MaxUint16 / 2

// CompileSchedule compiles a schedule — built in-process or imported from
// a schedule IR file — into the per-node Fig. 5 tables. Each flow's
// all-gather transfers are its tree edges, and each reduce-scatter
// transfer must mirror exactly one of them, step-reversed: the shape
// Algorithm 1 produces. Every non-root node gets one Reduce entry (send
// to parent once its children's Reduces arrive), every node with
// children one Gather entry per child-step group, and NOPs fill the steps
// a node sits out, to hold the lockstep. The DMA descriptors come from
// the schedule's flow segments. Schedules of any other shape (ring, HDRM,
// subsets) have no Fig. 5 encoding and return a descriptive error.
func CompileSchedule(s *collective.Schedule) (*Tables, error) {
	return CompileScheduleObserved(s, nil)
}

// CompileScheduleObserved is CompileSchedule bracketed as the ni-compile
// phase of a PlanObserver: phase boundaries plus the compiled entry count
// (NOPs included — they occupy table rows). A nil observer is exactly
// CompileSchedule.
func CompileScheduleObserved(s *collective.Schedule, o obs.PlanObserver) (*Tables, error) {
	if o == nil {
		return compile(s)
	}
	o.PhaseStart(obs.PhaseNICompile)
	ts, err := compile(s)
	var c obs.PlanCounters
	if ts != nil {
		for n := range ts.PerNode {
			c.TableEntries += int64(len(ts.PerNode[n].Entries))
		}
	}
	o.PhaseEnd(obs.PhaseNICompile, c)
	return ts, err
}

func compile(s *collective.Schedule) (*Tables, error) {
	if s.Steps <= 0 || s.Steps%2 != 0 {
		return nil, fmt.Errorf("ni: %s schedule has %d steps, not an even two-phase count", s.Algorithm, s.Steps)
	}
	half, n, flows := s.Steps/2, s.Topo.Nodes(), len(s.Flows)

	// Index the trees by k = flow*n + node: the gather into a node is its
	// tree edge, and that edge's reduce must come back the other way.
	parent := make([]int32, flows*n) // -1: no edge into the node
	ag := make([]int32, flows*n)     // all-gather step of the edge into the node
	kids := make([]int32, flows*n+1) // child counts, then CSR offsets into order
	for k := range parent {
		parent[k] = -1
	}
	height := 0 // the tallest tree
	for i := range s.Transfers {
		t := &s.Transfers[i]
		if t.Flow < 0 || t.Flow >= flows || t.Src < 0 || int(t.Src) >= n || t.Dst < 0 || int(t.Dst) >= n {
			return nil, fmt.Errorf("ni: transfer %d lies outside the schedule's %d flows and %d nodes", i, flows, n)
		}
		if t.Op != collective.Gather {
			continue
		}
		a, k := t.Step-half, t.Flow*n+int(t.Dst)
		switch {
		case a < 1 || a > half:
			return nil, fmt.Errorf("ni: flow %d gather at step %d is outside the all-gather phase (%d..%d)",
				t.Flow, t.Step, half+1, 2*half)
		case a > maxHeight:
			return nil, fmt.Errorf("ni: flow %d gather at all-gather step %d overflows the %d-step table", t.Flow, a, 2*maxHeight)
		case parent[k] >= 0:
			return nil, fmt.Errorf("ni: flow %d node %d receives two all-gather transfers", t.Flow, t.Dst)
		}
		parent[k], ag[k] = int32(t.Src), int32(a)
		kids[t.Flow*n+int(t.Src)]++
		height = max(height, a)
	}
	mirrored := make([]bool, flows*n)
	for i := range s.Transfers {
		t := &s.Transfers[i]
		if t.Op != collective.Reduce {
			continue
		}
		k := t.Flow*n + int(t.Src)
		if parent[k] != int32(t.Dst) || int(ag[k]) != half-t.Step+1 || mirrored[k] {
			return nil, fmt.Errorf("ni: flow %d reduce n%d->n%d at step %d mirrors no all-gather edge",
				t.Flow, t.Src, t.Dst, t.Step)
		}
		mirrored[k] = true
	}
	// Each flow must be one tree over all n nodes whose every edge is
	// mirrored and attaches strictly after the edge into its parent; the
	// steps then strictly fall up any parent chain, so no chain cycles.
	for f := range flows {
		root := -1
		for v := range n {
			k := f*n + v
			switch p := int(parent[k]); {
			case p >= 0:
				if !mirrored[k] {
					return nil, fmt.Errorf("ni: flow %d edge n%d->n%d (gather step %d) has no mirrored reduce n%d->n%d at step %d",
						f, p, v, half+int(ag[k]), v, p, half-int(ag[k])+1)
				}
				if parent[f*n+p] >= 0 && ag[f*n+p] >= ag[k] {
					return nil, fmt.Errorf("ni: flow %d node %d (step %d) attaches no later than its parent %d (step %d)",
						f, v, ag[k], p, ag[f*n+p])
				}
			case kids[k] == 0:
				return nil, fmt.Errorf("ni: flow %d does not reach node %d; subset schedules are not table-compilable", f, v)
			case root >= 0:
				return nil, fmt.Errorf("ni: flow %d has two roots (n%d and n%d)", f, root, v)
			default:
				root = v
			}
		}
	}

	// List each (flow, node)'s children in order[kids[k]:kids[k+1]], by
	// id, then stably by attach step: the order the table lists them.
	total := int32(0)
	for k := range parent {
		total += kids[k]
		kids[k] = total
	}
	kids[len(parent)] = total
	order := make([]int32, total)
	for k := len(parent) - 1; k >= 0; k-- {
		if p := parent[k]; p >= 0 {
			kp := k - k%n + int(p)
			kids[kp]--
			order[kids[kp]] = int32(k % n)
		}
	}
	var step []int32 // the flow's row of ag, for the sort
	byStep := func(a, b int32) int { return cmp.Compare(step[a], step[b]) }
	for k := range parent {
		if run := order[kids[k]:kids[k+1]]; len(run) > 1 {
			step = ag[k-k%n : k-k%n+n]
			slices.SortStableFunc(run, byStep)
		}
	}

	// emit walks every entry flow by flow, each node's in issue order,
	// and fills the arena slot put returns for it; while arena is nil it
	// only counts the entries of every (node, step). A Reduce with more
	// than MaxChildren children chains entries of the same (flow, step),
	// which the issue logic treats as one unit.
	steps := 2 * height
	slot := make([]int32, n*steps)
	var arena []Entry
	put := func(v, st int) *Entry {
		i := &slot[v*steps+st-1]
		*i++
		if arena == nil {
			return nil
		}
		return &arena[*i-1]
	}
	emit := func() error {
		for f, seg := range s.Flows {
			for v := range n {
				k := f*n + v
				run := order[kids[k]:kids[k+1]]
				if p := parent[k]; p >= 0 {
					st := height - int(ag[k]) + 1
					for i := 0; i == 0 || i < len(run); i += MaxChildren {
						set(put(v, st), collective.Reduce, f, p, st, seg, run[i:min(i+MaxChildren, len(run))])
					}
				}
				for i := 0; i < len(run); {
					a, j := ag[f*n+int(run[i])], i+1
					for j < len(run) && ag[f*n+int(run[j])] == a {
						j++
					}
					if j-i > MaxChildren {
						return fmt.Errorf("ni: node %d tree %d step %d has more than %d same-step children", v, f, a, MaxChildren)
					}
					set(put(v, height+int(a)), collective.Gather, f, parent[k], height+int(a), seg, run[i:j])
					i = j
				}
			}
		}
		return nil
	}

	// Count, lay one arena out from the counts with a NOP in every empty
	// slot, then fill it; filling flow by flow leaves each node's entries
	// in (step, flow) order.
	if err := emit(); err != nil {
		return nil, err
	}
	size := 0
	for _, c := range slot {
		size += max(int(c), 1)
	}
	arena = make([]Entry, size)
	ts := &Tables{Steps: height, PerNode: make([]Table, n)}
	at := 0
	for v := range n {
		start := at
		for i, c := range slot[v*steps : (v+1)*steps] {
			slot[v*steps+i] = int32(at)
			if c == 0 {
				set(&arena[at], collective.NOP, -1, -1, i+1, collective.Range{}, nil)
				c = 1
			}
			at += int(c)
		}
		ts.PerNode[v] = Table{Node: topology.NodeID(v), Entries: arena[start:at:at]}
	}
	return ts, emit()
}

// set fills the entry e, when it is not nil, with kids as its Children
// padded by Nil.
func set(e *Entry, op collective.Op, flow int, parent int32, step int, seg collective.Range, kids []int32) {
	if e == nil {
		return
	}
	e.Op, e.FlowID, e.Parent, e.Step, e.StartAddr, e.Size = op, flow, topology.NodeID(parent), step, seg.Off, seg.Len
	for i := range e.Children {
		e.Children[i] = Nil
		if i < len(kids) {
			e.Children[i] = topology.NodeID(kids[i])
		}
	}
}
