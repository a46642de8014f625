package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"multitree/internal/collective"
	"multitree/internal/obs"
	"multitree/internal/topology"
)

// This file is the tree-growth engine behind BuildTrees: Algorithm 1's
// main loop over a word-packed per-step link pool, with memoized search
// failures and optional sharded speculative turns. Whatever the shard
// count, the trees produced are byte-identical to a sequential run —
// sharding and memoization only skip work whose outcome is already
// proven.
//
// Three facts carry all of the pruning, each a consequence of the same
// step invariant (within a time step the link pool only shrinks, a tree
// only grows, and the eligible-parent lists are frozen):
//
//   - A tree whose turn found no free path stays stuck for the rest of
//     the step (stalledAt).
//   - A parent whose search failed this step keeps failing this step
//     (treeMemo.failedAt).
//   - A parent whose search failed without meeting one occupied link has
//     seen its entire reachable neighborhood already in the tree; it is
//     dead for every future step too (treeMemo.dead).
//
// Sharded rounds run speculatively: each shard's trees search a private
// copy of the step's pool concurrently while recording the links they
// read. Commits then replay the sequential turn order; a speculative
// result whose read set saw exactly the pool the sequential search
// would have seen is provably the sequential result, and only the
// others re-run against the live pool (roundSharded).

// growth is the scratch state of one Algorithm 1 run.
type growth struct {
	topo *topology.Topology
	opts Options
	n, k int

	trees   []*collective.Tree
	inTree  [][]bool
	members []int
	parents [][]topology.NodeID // usable as parents (added in previous steps), in addition order
	pending [][]topology.NodeID // added during the current step, merged at step end
	memo    []*treeMemo

	// stalledAt[ti] stamps the step whose link pool tree ti exhausted:
	// its turn found no free path, so it sits out the step's remaining
	// rounds.
	stalledAt []int32

	ecc []int

	avail bitset      // the step's link pool: set = free
	seq   *pathFinder // the sequential / replay finder

	c obs.PlanCounters

	// treeOrder scratch, reused every round.
	orderIdx []int
	orderRem []int

	// Sharded-round state, allocated only for Shards > 1. Each shard
	// owns a geometric slice of the roots, a private copy of the step's
	// pool, and its own provisional-mode finder; shardSpec tracks the
	// links each shard's speculation claimed, rebuilt turn by turn
	// during the merge.
	shards        int
	claimed       bitset // links committed by earlier turns this round
	active        []int  // trees taking a turn this round, in turn order
	specChild     []topology.NodeID
	specParent    []topology.NodeID
	specPath      [][]topology.LinkID
	specTouched   []bitset
	shardOf       []int // shard index per tree
	shardAvail    []bitset
	shardSpec     []bitset
	shardTrees    [][]int
	shardFinders  []*pathFinder
	specFail      [][2]int // per tree: [lo,hi) of the turn's provisional failure stamps in its shard finder's failBuf
	shardTurns    int64
	shardReplays  int64
	shardPause    int // rounds left to take directly on the live pool after a conflict-heavy merge
	shardPauseLen int // current backoff length; doubles on consecutive conflict-heavy probes
}

// shardProbeInterval is how many rounds a conflict-heavy merge pauses
// speculation for before probing a sharded round again; consecutive
// failed probes double the pause up to shardPauseMax. Conflict
// structure shifts as trees fill in (early rounds contend fabric-wide,
// endgame rounds barely overlap), so the pause is a backoff, not a
// permanent downgrade — but on hosts or fabrics where speculation
// never pays (one core, dense contention) the probe tax decays to
// nothing instead of recurring every few rounds.
const (
	shardProbeInterval = 8
	shardPauseMax      = 1 << 10
)

// growTrees is the tree-growth phase body: Algorithm 1's main loop with
// the per-step link allocation. It always maintains the PlanCounters —
// integer adds cost nothing worth branching around — and reports per-step
// progress only when an observer is attached.
func growTrees(topo *topology.Topology, opts Options) ([]*collective.Tree, obs.PlanCounters, error) {
	g, err := newGrowth(topo, opts)
	if err != nil {
		return nil, obs.PlanCounters{}, err
	}
	return g.run()
}

func newGrowth(topo *topology.Topology, opts Options) (*growth, error) {
	n := topo.Nodes()
	k := n // one tree per node by default
	if opts.Trees > 0 && opts.Trees < n {
		k = opts.Trees
	}
	g := &growth{topo: topo, opts: opts, n: n, k: k}
	g.trees = make([]*collective.Tree, k)
	g.inTree = make([][]bool, k)
	g.members = make([]int, k)
	g.parents = make([][]topology.NodeID, k)
	g.pending = make([][]topology.NodeID, k)
	g.memo = make([]*treeMemo, k)
	g.stalledAt = make([]int32, k)
	for i := 0; i < k; i++ {
		g.trees[i] = collective.NewTree(i, topology.NodeID(i), n)
		g.inTree[i] = make([]bool, n)
		g.inTree[i][i] = true
		g.members[i] = 1
		g.parents[i] = []topology.NodeID{topology.NodeID(i)}
		g.memo[i] = newTreeMemo(n)
	}
	if opts.Order == ByRemainingHeight {
		g.ecc = eccentricities(topo, opts.Workers)
		for i := 0; i < k; i++ {
			if g.ecc[i] == EccUnreachable {
				u := newEccScratch(topo).firstUnreachable(i)
				return nil, fmt.Errorf("multitree: root %d cannot reach node %d on %s: refusing to grow a partial tree", i, u, topo.Name())
			}
		}
	}
	g.avail = newBitset(len(topo.Links()))
	g.seq = newPathFinder(topo, opts.ReverseNeighborOrder)
	g.seq.shortestFirst = opts.ShortestPathFirst
	g.orderIdx = make([]int, k)
	g.orderRem = make([]int, k)
	if opts.Shards > 1 {
		g.shards = min(opts.Shards, k)
	}
	if g.shards > 1 {
		g.claimed = newBitset(len(topo.Links()))
		g.active = make([]int, 0, k)
		g.specChild = make([]topology.NodeID, k)
		g.specParent = make([]topology.NodeID, k)
		g.specPath = make([][]topology.LinkID, k)
		g.specTouched = make([]bitset, k)
		for i := range g.specTouched {
			g.specTouched[i] = newBitset(len(topo.Links()))
		}
		g.shardOf = shardAssign(topo, k, g.shards)
		g.shardAvail = make([]bitset, g.shards)
		g.shardSpec = make([]bitset, g.shards)
		g.shardTrees = make([][]int, g.shards)
		g.shardFinders = make([]*pathFinder, g.shards)
		for s := 0; s < g.shards; s++ {
			g.shardAvail[s] = newBitset(len(topo.Links()))
			g.shardSpec[s] = newBitset(len(topo.Links()))
			g.shardFinders[s] = newPathFinder(topo, opts.ReverseNeighborOrder)
			g.shardFinders[s].shortestFirst = opts.ShortestPathFirst
			g.shardFinders[s].provisional = true
		}
		g.specFail = make([][2]int, k)
	}
	return g, nil
}

func (g *growth) run() ([]*collective.Tree, obs.PlanCounters, error) {
	o := g.opts.Observer
	// Every tree must attach all other nodes: the unit of progress.
	totalAttach := int64(g.k) * int64(g.n-1)
	for t := int32(1); ; t++ {
		if complete(g.members, g.n) {
			g.fold()
			return g.trees, g.c, nil
		}
		if int(t) > 2*len(g.topo.Links())+2 {
			g.fold()
			return nil, g.c, fmt.Errorf("multitree: construction did not converge on %s", g.topo.Name())
		}
		// Start a new time step with a fresh topology graph (line 6).
		g.avail.fill()
		addedThisStep := 0
		for {
			var added int
			if g.shards > 1 && g.shardPause == 0 {
				added = g.roundSharded(t)
			} else {
				if g.shardPause > 0 {
					g.shardPause--
				}
				added = g.roundSequential(t)
			}
			if added == 0 {
				break
			}
			addedThisStep += added
		}
		if addedThisStep == 0 {
			g.fold()
			return nil, g.c, g.stallError(t)
		}
		g.c.Steps++
		if o != nil {
			o.PlanProgress(obs.PhaseTreeGrowth, g.c.NodesAttached, totalAttach)
		}
		// Nodes added this step become eligible parents next step.
		for ti := 0; ti < g.k; ti++ {
			g.parents[ti] = append(g.parents[ti], g.pending[ti]...)
			g.pending[ti] = g.pending[ti][:0]
			// Once dead parents dominate a tree's list, drop them (order
			// preserved). find skips them either way, so the trees built
			// are unchanged; the per-turn skip scans just stop paying for
			// them.
			if m := g.memo[ti]; m.deadCount > 32 && m.deadCount*4 > len(g.parents[ti]) {
				kept := g.parents[ti][:0]
				for _, p := range g.parents[ti] {
					if !m.dead[p] {
						kept = append(kept, p)
					}
				}
				g.parents[ti] = kept
				m.deadCount = 0
			}
		}
	}
}

// stallError diagnoses a step that attached nothing. A disconnected
// fabric (a fault plan that isolated nodes, or a hand-built partial
// topology) is the common cause; when some unfinished tree's root cannot
// reach a node over the static graph at all, name the witness pair
// instead of guessing.
func (g *growth) stallError(t int32) error {
	for ti := 0; ti < g.k; ti++ {
		if g.members[ti] == g.n {
			continue
		}
		root := int(g.trees[ti].Root)
		if u := newEccScratch(g.topo).firstUnreachable(root); u >= 0 {
			return fmt.Errorf("multitree: root %d cannot reach node %d on %s: topology is disconnected", root, u, g.topo.Name())
		}
		break // this root reaches everything; no cheap witness, report generically
	}
	return fmt.Errorf("multitree: no progress at step %d on %s (disconnected graph?)", t, g.topo.Name())
}

// roundSequential gives every unfinished, unstalled tree one turn in
// order, committing each result before the next tree searches.
func (g *growth) roundSequential(t int32) int {
	added := 0
	for _, ti := range g.order() {
		if g.members[ti] == g.n || g.stalledAt[ti] == t {
			continue
		}
		child, parent, path := g.seq.find(g.parents[ti], g.inTree[ti], g.avail, g.memo[ti], t)
		if child < 0 {
			g.stalledAt[ti] = t
			continue
		}
		g.commit(ti, child, parent, path, t)
		added++
	}
	return added
}

// roundSharded runs one round sharded: the active trees partition by
// root shard, each shard's trees take their turns in order against a
// private copy of the live pool on the shard's own goroutine, and the
// speculative results merge in the global sequential turn order. A
// turn's shard pool differs from the live pool at its merge point by
// exactly (links committed by earlier turns) XOR (links the shard's own
// earlier turns claimed speculatively); a search that read no link in
// that difference saw bit-for-bit the pool the sequential search would
// have seen and commits as-is — failure stamps included. The rest
// replay against the live pool, so the committed trees are exactly the
// sequential round's at any shard count.
func (g *growth) roundSharded(t int32) int {
	g.active = g.active[:0]
	for _, ti := range g.order() {
		if g.members[ti] == g.n || g.stalledAt[ti] == t {
			continue
		}
		g.active = append(g.active, ti)
	}
	if len(g.active) == 0 {
		return 0
	}
	for s := 0; s < g.shards; s++ {
		g.shardTrees[s] = g.shardTrees[s][:0]
	}
	busy := 0
	for _, ti := range g.active {
		s := g.shardOf[ti]
		if len(g.shardTrees[s]) == 0 {
			busy++
		}
		g.shardTrees[s] = append(g.shardTrees[s], ti)
	}
	if busy == 1 || len(g.active) == 1 {
		// Everything left lives in one shard (the endgame rounds):
		// speculation against a pool copy buys nothing over taking the
		// turns directly on the live pool.
		added := 0
		for _, ti := range g.active {
			child, parent, path := g.seq.find(g.parents[ti], g.inTree[ti], g.avail, g.memo[ti], t)
			if child < 0 {
				g.stalledAt[ti] = t
				continue
			}
			g.commit(ti, child, parent, path, t)
			added++
		}
		return added
	}

	var wg sync.WaitGroup
	first := -1
	for s := 0; s < g.shards; s++ {
		if len(g.shardTrees[s]) == 0 {
			continue
		}
		if first < 0 {
			first = s
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			g.speculateShard(s, t)
		}(s)
	}
	g.speculateShard(first, t)
	wg.Wait()

	o := g.opts.Observer
	if o != nil {
		o.PhaseStart(obs.PhaseShardMerge)
	}
	g.claimed.zero()
	for s := 0; s < g.shards; s++ {
		g.shardSpec[s].zero()
	}
	added, replays := 0, 0
	for _, ti := range g.active {
		s := g.shardOf[ti]
		child, parent, path := g.specChild[ti], g.specParent[ti], g.specPath[ti]
		if !g.specTouched[ti].intersectsDiff(g.claimed, g.shardSpec[s]) {
			// Proven equal to the sequential search: its provisional
			// failure stamps are the ones the sequential run would have
			// recorded, so flush them.
			f := g.shardFinders[s]
			for _, p := range f.failBuf[g.specFail[ti][0]:g.specFail[ti][1]] {
				g.memo[ti].failedAt[p] = t
			}
		} else {
			replays++
			child, parent, path = g.seq.find(g.parents[ti], g.inTree[ti], g.avail, g.memo[ti], t)
		}
		// The speculated claims shaped the shard pool for the shard's
		// later turns whether or not this turn replayed.
		for _, l := range g.specPath[ti] {
			g.shardSpec[s].set(int(l))
		}
		if child < 0 {
			g.stalledAt[ti] = t
			continue
		}
		for _, l := range path {
			g.claimed.set(int(l))
		}
		g.commit(ti, child, parent, path, t)
		added++
	}
	g.shardTurns += int64(len(g.active))
	g.shardReplays += int64(replays)
	// Adaptive backoff: speculation pays only while the merge commits
	// most turns clean. Replays re-search the live pool one by one, so
	// with p shards truly running in parallel a sharded round costs
	// roughly turns/p + replays search-times against the sequential
	// round's turns — worth it only while the replay share stays under
	// 1 - 1/p (taken with a 3/4 margin here, in integers:
	// replays/turns > 3(p-1)/4p pauses). Which rounds run
	// speculatively is pure scheduling; the trees built are
	// byte-identical either way, since the merge replays exactly the
	// turns whose speculation diverged from sequential state.
	if p := min(busy, g.shards, runtime.GOMAXPROCS(0)); replays*4*p > len(g.active)*3*(p-1) {
		if g.shardPauseLen == 0 {
			g.shardPauseLen = shardProbeInterval
		} else if g.shardPauseLen < shardPauseMax {
			g.shardPauseLen *= 2
		}
		g.shardPause = g.shardPauseLen
	} else {
		g.shardPauseLen = 0
	}
	if o != nil {
		o.PhaseEnd(obs.PhaseShardMerge, obs.PlanCounters{
			ShardTurns:   int64(len(g.active)),
			ShardReplays: int64(replays),
		})
	}
	return added
}

// speculateShard gives each of shard s's active trees its turn in order
// against the shard's private pool copy: successful searches claim their
// paths from the shard pool only, so the shard's later turns see them
// exactly as the sequential round would. This-step failure stamps
// derived from the shard pool are buffered per turn (the finder runs in
// provisional mode) until the merge proves the turn clean or replays it;
// permanent dead marks write through.
func (g *growth) speculateShard(s int, t int32) {
	f := g.shardFinders[s]
	pool := g.shardAvail[s]
	copy(pool, g.avail)
	f.failBuf = f.failBuf[:0]
	for _, ti := range g.shardTrees[s] {
		tb := g.specTouched[ti]
		tb.zero()
		f.touched = tb
		lo := len(f.failBuf)
		c, p, path := f.find(g.parents[ti], g.inTree[ti], pool, g.memo[ti], t)
		f.touched = nil
		g.specFail[ti] = [2]int{lo, len(f.failBuf)}
		g.specChild[ti], g.specParent[ti], g.specPath[ti] = c, p, path
		for _, l := range path {
			pool.clear(int(l))
		}
	}
}

// shardAssign partitions the k tree roots into shards. On grids the
// shards are near-square tiles of the node grid — quadrants at four
// shards — so each shard's trees grow outward from a distinct region of
// the fabric and their early link claims rarely collide. Elsewhere the
// roots split into contiguous id bands, preserving whatever locality
// the builder's node numbering has.
func shardAssign(topo *topology.Topology, k, shards int) []int {
	of := make([]int, k)
	nx, ny := topo.GridDims()
	if nx > 0 && ny > 0 {
		// Factor shards = sx*sy with the tile grid as square as possible.
		sx := 1
		for d := 1; d*d <= shards; d++ {
			if shards%d == 0 {
				sx = d
			}
		}
		sy := shards / sx
		for i := 0; i < k; i++ {
			c, ok := topo.NodeCoord(topology.NodeID(i))
			if !ok {
				of[i] = i * shards / k
				continue
			}
			of[i] = (c.Y*sy/ny)*sx + c.X*sx/nx
		}
		return of
	}
	for i := 0; i < k; i++ {
		of[i] = i * shards / k
	}
	return of
}

// commit claims the path from the step's pool and attaches child to tree
// ti.
func (g *growth) commit(ti int, child, parent topology.NodeID, path []topology.LinkID, t int32) {
	for _, l := range path {
		g.avail.clear(int(l))
	}
	g.c.LinksAllocated += int64(len(path))
	g.trees[ti].SetEdge(parent, child, int(t))
	g.trees[ti].Path[child] = path
	g.inTree[ti][child] = true
	g.members[ti]++
	g.c.NodesAttached++
	if g.members[ti] == g.n {
		g.c.TreesGrown++
	}
	g.pending[ti] = append(g.pending[ti], child)
}

// fold accumulates every finder's search counters into the run's.
func (g *growth) fold() {
	g.seq.fold(&g.c)
	for _, f := range g.shardFinders {
		f.fold(&g.c)
	}
}

// order returns the indices of the trees in the order they take turns
// this round, into scratch reused across rounds.
func (g *growth) order() []int {
	idx := g.orderIdx
	for i := range idx {
		idx[i] = i
	}
	if g.opts.Order != ByRemainingHeight {
		return idx // ascending root id
	}
	remaining := g.orderRem
	for i, tr := range g.trees {
		remaining[i] = g.ecc[i] - tr.Height()
	}
	// Insertion sort, descending remaining height, ties by root id.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0; j-- {
			a, b := idx[j], idx[j-1]
			if remaining[a] > remaining[b] || (remaining[a] == remaining[b] && a < b) {
				idx[j], idx[j-1] = idx[j-1], idx[j]
			} else {
				break
			}
		}
	}
	return idx
}

func complete(members []int, n int) bool {
	for _, m := range members {
		if m != n {
			return false
		}
	}
	return true
}

// EccUnreachable is the eccentricity sentinel for a source that cannot
// reach every node. On degraded or disconnected topologies the max-hop
// figure is undefined; silently skipping the unreachable nodes (the old
// behavior) under-scored exactly the roots that cannot grow a full tree,
// so callers must treat a sentinel root as an error, not a short tree.
const EccUnreachable = -1

// eccentricities returns each node's maximum hop distance to any other
// node, measured over the full (unallocated) topology graph, traversing
// switches freely, or EccUnreachable for sources that cannot reach every
// node. It estimates the final height of the tree rooted there. Direct
// symmetric fabrics take an incremental path that updates distances
// between adjacent sources; otherwise the per-source searches are
// independent, so they reuse one scratch set per worker and fan out
// across workers when asked.
func eccentricities(topo *topology.Topology, workers int) []int {
	if out := eccentricitiesIncremental(topo); out != nil {
		return out
	}
	n := topo.Nodes()
	out := make([]int, n)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := newEccScratch(topo)
		for src := 0; src < n; src++ {
			out[src] = s.from(src)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := newEccScratch(topo)
			for {
				src := int(next.Add(1)) - 1
				if src >= n {
					return
				}
				out[src] = s.from(src)
			}
		}()
	}
	wg.Wait()
	return out
}

// eccScratch is one worker's reusable BFS state for eccentricities.
type eccScratch struct {
	topo           *topology.Topology
	dist           []int32
	frontier, next []int
}

func newEccScratch(topo *topology.Topology) *eccScratch {
	return &eccScratch{
		topo:     topo,
		dist:     make([]int32, topo.Vertices()),
		frontier: make([]int, 0, topo.Vertices()),
		next:     make([]int, 0, topo.Vertices()),
	}
}

func (s *eccScratch) from(src int) int {
	t := s.topo
	dist := s.dist
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	cur := s.frontier[:0]
	cur = append(cur, src)
	nxt := s.next[:0]
	for len(cur) > 0 {
		nxt = nxt[:0]
		for _, v := range cur {
			// In switch-based networks only switches forward, so a path
			// cannot relay through another end node; in direct networks
			// every node's integrated router forwards.
			if t.Class() == topology.Indirect && t.IsNode(v) && v != src {
				continue
			}
			for _, l := range t.Out(v) {
				w := t.Link(l).Dst
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					nxt = append(nxt, w)
				}
			}
		}
		cur, nxt = nxt, cur
	}
	s.frontier, s.next = cur, nxt // keep whichever capacity each grew
	// Node-distance in construction steps: switch hops are internal to a
	// single scheduled edge, so eccentricity counts destination nodes
	// only. A conservative proxy is the max node distance in links, which
	// orders roots correctly on grids and trees alike.
	ecc := 0
	for d := 0; d < t.Nodes(); d++ {
		if dist[d] < 0 {
			return EccUnreachable
		}
		if int(dist[d]) > ecc {
			ecc = int(dist[d])
		}
	}
	return ecc
}

// firstUnreachable runs the eccentricity BFS from src and returns the
// lowest-numbered node it cannot reach, or -1 when every node is
// reachable.
func (s *eccScratch) firstUnreachable(src int) topology.NodeID {
	s.from(src)
	for d := 0; d < s.topo.Nodes(); d++ {
		if s.dist[d] < 0 {
			return topology.NodeID(d)
		}
	}
	return -1
}

// symmetricLinks reports whether every directed link has a reverse
// companion — the precondition for the incremental eccentricity pass's
// triangle-inequality seeding.
func symmetricLinks(topo *topology.Topology) bool {
	links := topo.Links()
	seen := make(map[uint64]bool, len(links))
	for _, l := range links {
		seen[uint64(uint32(l.Src))<<32|uint64(uint32(l.Dst))] = true
	}
	for _, l := range links {
		if !seen[uint64(uint32(l.Dst))<<32|uint64(uint32(l.Src))] {
			return false
		}
	}
	return true
}

// eccentricitiesIncremental computes every node's eccentricity by
// updating distances between adjacent sources instead of re-running a
// full breadth-first search per source. On direct fabrics with
// symmetric links the hop metric obeys the triangle inequality, so for
// adjacent vertices u, v the exact distances from u bound those from v:
// d(v,w) <= d(u,w) + 1. Seeding v's array with du+1 and relaxing only
// the strict improvements touches just the region whose distance
// actually changes — about half the fabric per hop on grids, against a
// full sweep for a from-scratch BFS. Sources are visited by walking a
// BFS spanning tree of the fabric depth-first with one distance array
// per tree level, so every seed comes from an exact, adjacent source.
//
// The relaxation is exact: along any shortest path from v, each vertex
// either gets improved (and then relaxes its successor) or its seeded
// value already equals the true distance — and then the successor's
// seed is forced to the true distance too, by the same two inequalities
// that justified the seed.
//
// Returns nil when the preconditions fail (indirect class, asymmetric
// links, disconnected graph); the caller falls back to per-source BFS,
// which also produces the EccUnreachable sentinels.
func eccentricitiesIncremental(topo *topology.Topology) []int {
	if topo.Class() != topology.Direct || !symmetricLinks(topo) {
		return nil
	}
	nv := topo.Vertices()
	n := topo.Nodes()
	if nv == 0 || n == 0 {
		return nil
	}
	// BFS spanning tree of the fabric from vertex 0.
	parent := make([]int32, nv)
	for i := range parent {
		parent[i] = -1
	}
	parent[0] = 0
	bfsOrder := make([]int32, 0, nv)
	bfsOrder = append(bfsOrder, 0)
	for qi := 0; qi < len(bfsOrder); qi++ {
		v := int(bfsOrder[qi])
		for _, l := range topo.Out(v) {
			w := topo.Link(l).Dst
			if parent[w] < 0 {
				parent[w] = int32(v)
				bfsOrder = append(bfsOrder, int32(w))
			}
		}
	}
	if len(bfsOrder) != nv {
		return nil // disconnected
	}
	// Children of each vertex in the spanning tree, as a CSR layout.
	start := make([]int32, nv+1)
	for _, v := range bfsOrder[1:] {
		start[parent[v]+1]++
	}
	for i := 0; i < nv; i++ {
		start[i+1] += start[i]
	}
	kids := make([]int32, nv-1)
	fill := make([]int32, nv)
	copy(fill, start[:nv])
	for _, v := range bfsOrder[1:] {
		p := parent[v]
		kids[fill[p]] = v
		fill[p]++
	}

	out := make([]int, n)
	eccOf := func(d []int32) int {
		e := 0
		for i := 0; i < n; i++ {
			if int(d[i]) > e {
				e = int(d[i])
			}
		}
		return e
	}
	// Exact distances from the tree root, by full BFS.
	levels := [][]int32{make([]int32, nv)}
	d0 := levels[0]
	for i := range d0 {
		d0[i] = -1
	}
	d0[0] = 0
	q := make([]int32, 0, nv)
	q = append(q, 0)
	for qi := 0; qi < len(q); qi++ {
		v := int(q[qi])
		for _, l := range topo.Out(v) {
			w := topo.Link(l).Dst
			if d0[w] < 0 {
				d0[w] = d0[v] + 1
				q = append(q, int32(w))
			}
		}
	}
	out[0] = eccOf(d0)

	// Depth-first walk of the spanning tree. Each descent u -> v seeds
	// dv from du and relaxes; each level's array is reused across the
	// subtrees hanging at that depth, so memory is O(tree height) arrays.
	type frame struct {
		v    int32
		next int32 // cursor into kids[start[v]:start[v+1]]
	}
	stack := make([]frame, 1, 64)
	stack[0] = frame{v: 0, next: start[0]}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next >= start[f.v+1] {
			stack = stack[:len(stack)-1]
			continue
		}
		child := int(kids[f.next])
		f.next++
		depth := len(stack)
		if depth >= len(levels) {
			levels = append(levels, make([]int32, nv))
		}
		du, dv := levels[depth-1], levels[depth]
		for i, d := range du {
			dv[i] = d + 1
		}
		dv[child] = 0
		q = q[:0]
		q = append(q, int32(child))
		for qi := 0; qi < len(q); qi++ {
			x := int(q[qi])
			nd := dv[x] + 1
			for _, l := range topo.Out(x) {
				w := topo.Link(l).Dst
				if nd < dv[w] {
					dv[w] = nd
					q = append(q, int32(w))
				}
			}
		}
		if child < n {
			out[child] = eccOf(dv)
		}
		stack = append(stack, frame{v: int32(child), next: start[child]})
	}
	return out
}
