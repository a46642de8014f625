package core

import (
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// treeMemo caches one tree's proven search failures. Both facts rest on
// the same monotonicity: within a time step the link pool only shrinks
// and the tree only grows, so a breadth-first search that failed cannot
// start succeeding until the next step's fresh graph.
type treeMemo struct {
	// failedAt[p] is the construction step at which a search rooted at
	// parent p last failed for this tree; while the step is current the
	// parent is skipped without rescanning its frontier.
	failedAt []int32

	// dead[p] marks parents whose search failed without meeting a single
	// occupied link: it saw the parent's full statically-reachable
	// neighborhood and every candidate there was already in the tree.
	// The tree only grows, so such a parent can never extend it again,
	// on any step.
	dead []bool

	// deadCount is the number of dead parents still present in the
	// tree's eligible-parent list; growth compacts the list (dropping
	// dead entries, order preserved) once the count dominates, so find
	// stops re-skipping them every turn.
	deadCount int

	// skipStep/skipIdx memoize the leading run of the parent list that
	// is proven unable to extend the tree this step (dead, or failed at
	// skipStep). Both facts are monotone within a step, so the cursor
	// only advances; a new step resets it.
	skipStep int32
	skipIdx  int
}

func newTreeMemo(n int) *treeMemo {
	return &treeMemo{failedAt: make([]int32, n), dead: make([]bool, n)}
}

// markDead records a permanent failure, counting first-time marks so
// growth knows when compacting the parent list pays.
func (m *treeMemo) markDead(p topology.NodeID) {
	if !m.dead[p] {
		m.dead[p] = true
		m.deadCount++
	}
}

// pathFinder performs the per-parent breadth-first child search of
// Algorithm 1 line 10 (direct networks: a free one-hop edge) and its
// indirect-network extension §III-C3 (a free node-switch-...-node path).
type pathFinder struct {
	topo    *topology.Topology
	reverse bool

	// direct marks a switchless topology (every vertex an end node with
	// an integrated router). With full membership the breadth-first
	// search then degenerates to a scan of the parent's own out-links —
	// participating end nodes never relay, so the queue cannot grow —
	// and bfs takes a fast path that skips the epoch/queue machinery.
	direct bool

	// members, when non-nil, restricts candidate children to member nodes
	// (subset all-reduce, §VII-B); in direct networks non-member nodes'
	// routers still forward, so the search expands through them.
	members []bool

	// shortestFirst selects the Options.ShortestPathFirst allocation.
	shortestFirst bool

	// Search counters, maintained unconditionally (integer adds): turns
	// of Algorithm 1 line 10, the turns that found no free path, links
	// examined, and links skipped because another tree held them this
	// step. growTrees folds them into the phase counters at the end.
	searches      int64
	searchMisses  int64
	linksScanned  int64
	linkConflicts int64

	// BFS scratch, reused across calls. A vertex counts as visited when
	// its stamp equals the current epoch, so each search starts without
	// clearing the arrays — the clear was the dominant cost of planning
	// direct networks, where a search is otherwise a one-hop scan.
	visitedAt []uint64
	epoch     uint64
	via       []topology.LinkID
	queue     []int
	rev       []topology.LinkID
}

func newPathFinder(topo *topology.Topology, reverse bool) *pathFinder {
	return &pathFinder{
		topo:      topo,
		reverse:   reverse,
		direct:    topo.Class() == topology.Direct && topo.Switches() == 0,
		visitedAt: make([]uint64, topo.Vertices()),
		via:       make([]topology.LinkID, topo.Vertices()),
	}
}

// fold accumulates the search counters into c.
func (f *pathFinder) fold(c *obs.PlanCounters) {
	c.Searches += f.searches
	c.SearchMisses += f.searchMisses
	c.LinksScanned += f.linksScanned
	c.LinkConflicts += f.linkConflicts
}

// markFailure records a failed search rooted at parent p. Zero fresh
// conflicts means the search saw the parent's full static neighborhood,
// so the failure is permanent. Otherwise it only holds for this step.
func (f *pathFinder) markFailure(m *treeMemo, p topology.NodeID, step int32, before int64) {
	if f.linkConflicts == before {
		m.markDead(p)
		return
	}
	m.failedAt[p] = step
}

// find scans candidate parents in their order of addition and returns the
// first (child, parent, allocated path) reachable over free links, or
// child = -1 when no parent can extend the tree this step. With
// shortestFirst set it instead returns the globally shortest free path
// over all parents. A non-nil memo skips parents already proven unable to
// extend the tree (this step, or ever) and records fresh failures.
func (f *pathFinder) find(parents []topology.NodeID, inTree []bool, avail bitset, m *treeMemo, step int32) (topology.NodeID, topology.NodeID, []topology.LinkID) {
	f.searches++
	if m != nil {
		// Skip the leading run of parents already proven futile this
		// step in O(new failures) instead of re-testing them every turn.
		// Dense steps issue many turns per tree; without the cursor each
		// one rescans the same failed prefix.
		if m.skipStep != step {
			m.skipStep, m.skipIdx = step, 0
		}
		i := m.skipIdx
		for i < len(parents) && (m.dead[parents[i]] || m.failedAt[parents[i]] == step) {
			i++
		}
		m.skipIdx = i
		parents = parents[i:]
	}
	if !f.shortestFirst {
		for _, p := range parents {
			if m != nil && (m.dead[p] || m.failedAt[p] == step) {
				continue
			}
			before := f.linkConflicts
			if c, path := f.bfs(int(p), inTree, avail); c >= 0 {
				return c, p, path
			}
			if m != nil {
				f.markFailure(m, p, step, before)
			}
		}
		f.searchMisses++
		return -1, -1, nil
	}
	bestChild := topology.NodeID(-1)
	var bestParent topology.NodeID
	var bestPath []topology.LinkID
	for _, p := range parents {
		if m != nil && (m.dead[p] || m.failedAt[p] == step) {
			continue
		}
		before := f.linkConflicts
		c, path := f.bfs(int(p), inTree, avail)
		if c < 0 {
			if m != nil {
				f.markFailure(m, p, step, before)
			}
			continue
		}
		if bestChild < 0 || len(path) < len(bestPath) {
			bestChild, bestParent, bestPath = c, p, path
			if len(bestPath) <= 1 || (f.topo.Class() == topology.Indirect && len(bestPath) == 2) {
				break // cannot do better than a direct / same-switch hop
			}
		}
	}
	if bestChild < 0 {
		f.searchMisses++
	}
	return bestChild, bestParent, bestPath
}

// bfs searches from parent vertex start over available links. Expansion
// passes only through switch vertices; the first node vertex found that is
// not yet in the tree is returned together with its link path. Out-links
// are scanned in the topology's preference order (or reversed for the
// ablation), so one-hop children and Y-dimension neighbors win ties.
func (f *pathFinder) bfs(start int, inTree []bool, avail bitset) (topology.NodeID, []topology.LinkID) {
	t := f.topo
	if f.direct && f.members == nil {
		// Switchless fabric, full membership: every out-neighbor is an
		// end node, and end nodes already in the tree cannot relay, so
		// the search begins and ends at start's own links. Same scan
		// order, same counters, same result as the general loop below —
		// minus the visited stamps and queue it cannot need. Duplicate
		// destinations (parallel links) need no visited check either: a
		// free link to a new node returns immediately, so a repeated
		// destination can only be one already in the tree.
		links := t.Out(start)
		for li := 0; li < len(links); li++ {
			id := links[li]
			if f.reverse {
				id = links[len(links)-1-li]
			}
			f.linksScanned++
			if !avail.test(int(id)) {
				f.linkConflicts++
				continue
			}
			if w := t.Link(id).Dst; !inTree[w] {
				return topology.NodeID(w), []topology.LinkID{id}
			}
		}
		return -1, nil
	}
	f.epoch++
	if f.epoch == 0 { // stamp wraparound: invalidate everything once
		for i := range f.visitedAt {
			f.visitedAt[i] = 0
		}
		f.epoch = 1
	}
	e := f.epoch
	f.visitedAt[start] = e
	f.queue = f.queue[:0]
	f.queue = append(f.queue, start)
	for qi := 0; qi < len(f.queue); qi++ {
		v := f.queue[qi]
		links := t.Out(v)
		for li := 0; li < len(links); li++ {
			id := links[li]
			if f.reverse {
				id = links[len(links)-1-li]
			}
			f.linksScanned++
			if !avail.test(int(id)) {
				f.linkConflicts++
				continue
			}
			w := t.Link(id).Dst
			if f.visitedAt[w] == e {
				continue
			}
			f.visitedAt[w] = e
			f.via[w] = id
			if t.IsNode(w) {
				if f.members != nil && !f.members[w] {
					// Non-member accelerator: not a candidate child, but
					// its integrated router forwards in direct networks.
					if t.Class() == topology.Direct {
						f.queue = append(f.queue, w)
					}
					continue
				}
				if !inTree[w] {
					return topology.NodeID(w), f.pathTo(w, start)
				}
				continue // cannot relay through a participating end node
			}
			f.queue = append(f.queue, w)
		}
	}
	return -1, nil
}

// pathTo reconstructs the link path start -> v from the via array.
func (f *pathFinder) pathTo(v, start int) []topology.LinkID {
	f.rev = f.rev[:0]
	for u := v; u != start; u = f.topo.Link(f.via[u]).Src {
		f.rev = append(f.rev, f.via[u])
	}
	path := make([]topology.LinkID, len(f.rev))
	for i, id := range f.rev {
		path[len(f.rev)-1-i] = id
	}
	return path
}
