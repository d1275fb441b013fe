package tqtree

// The build plan: one pointer-free partition of a slab of entries into
// q-nodes, which BuildFrozen writes as columns. Each entry descends from
// the root once, as the slab is built, and keeps its route as a packed
// path: a quadrant per level, 2 bits each, and the depth it stops at.
// Planning then moves only an []int32 permutation of slab indices, in
// which each node owns one range — its own list, then its children's —
// and classifies an entry at a node by one digit of its path. A Z-ordered
// node's own list is sorted as (start code, end code, slab index)
// records, so the sort reads no slab entry.

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// planNode is one q-node of a plan; its own list is perm[lo:own].
type planNode struct {
	rect          geo.Rect
	lo, own       int32
	child         [4]int32 // plan node per quadrant, -1 where none
	leaf          bool
	ownUB, treeUB [service.NumScenarios]float64
}

// zKey is a slab entry's sort key in a Z-ordered list.
type zKey struct {
	start, end uint64
	at         int32 // slab index
}

// cmpZKey orders keys by (start, end) z-ids, the z-lists' order.
func cmpZKey(a, b zKey) int {
	if a.start != b.start {
		return cmp.Compare(a.start, b.start)
	}
	return cmp.Compare(a.end, b.end)
}

// plan is the partition of slab under opts, with the header the frozen
// layout takes over: the root space and the corpus counts.
type plan struct {
	opts       Options
	bounds     geo.Rect
	numTrajs   int
	numEntries int
	numPoints  int // sizes the trajectory table's arena

	users []*trajectory.Trajectory // read only for a multipoint entry
	slab  []Entry
	// mbr holds each entry's MBR, its routing rectangle, on a
	// FullTrajectory plan; ub each segment's per-scenario bound on a
	// Segmented one. Both are nil elsewhere.
	mbr []geo.Rect
	ub  [][service.NumScenarios]float64

	// Entry p's route: its quadrant at depth d is bits 2(d%32)..2(d%32)+1
	// of path[p*words+d/32]. stop[p] >= 0 is the depth at which it stays;
	// stop[p] = ^f < 0 says the entry reached a fixed point at depth f —
	// a cell whose quadrant is the cell itself, which it routes into at
	// every deeper level — so it stays only where MaxDepth stops it.
	path  []uint64
	stop  []int32
	words int

	perm []int32

	mu    sync.Mutex // guards nodes: subtrees are planned concurrently
	nodes []planNode // children before parents
	top   int32

	// Scratch indexed like perm: concurrent subtrees use disjoint ranges.
	scratch []int32
	keys    []zKey // ZOrder only

	// first is the writer's: each segmented trajectory's table ordinal,
	// plus one, at the slab index of its segment 0 (Segmented only).
	first []int32
}

// leafFits is the leaf rule: a node of n entries at depth stays a leaf —
// as does one whose entries all straddle its children.
func (o *Options) leafFits(n, depth int) bool {
	return n <= o.Beta || depth >= o.MaxDepth
}

// planCorpus lays the users' entries out in one slab over the root space
// (opts.Bounds extended to the data), routes each from the root, and
// plans the tree over them.
func planCorpus(users []*trajectory.Trajectory, opts Options) (*plan, error) {
	if opts.Beta <= 0 {
		opts.Beta = DefaultBeta
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	if opts.Variant < TwoPoint || opts.Variant > FullTrajectory {
		return nil, fmt.Errorf("tqtree: invalid variant %d", int(opts.Variant))
	}
	if opts.Ordering < Basic || opts.Ordering > ZOrder {
		return nil, fmt.Errorf("tqtree: invalid ordering %d", int(opts.Ordering))
	}
	pl := &plan{opts: opts, bounds: opts.Bounds, users: users}
	n := 0
	for _, u := range users {
		// Non-finite geometry would make the root space infinite (or
		// drop a NaN from it): refuse it before planning over it.
		if err := u.Validate(); err != nil {
			return nil, fmt.Errorf("tqtree: %w", err)
		}
		pl.bounds = pl.bounds.ExtendRect(u.MBR())
		if n++; opts.Variant == Segmented {
			n += u.NumSegments() - 1
		}
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tqtree: %d entries exceed int32 addressing", n)
	}
	pl.numEntries, pl.numTrajs = n, len(users)
	pl.slab = make([]Entry, 0, n)
	pl.path, pl.words = make([]uint64, n), 1
	cols := 3
	switch opts.Variant {
	case FullTrajectory:
		pl.mbr = make([]geo.Rect, n)
	case Segmented:
		pl.ub = make([][service.NumScenarios]float64, n)
		cols = 4
	}
	// One allocation for the int32 columns: perm, its scratch, the stops
	// and, on a Segmented plan, the writer's first ordinals.
	ints := make([]int32, cols*n)
	pl.perm, pl.scratch, pl.stop, pl.first = ints[:n:n], ints[n:2*n:2*n], ints[2*n:3*n:3*n], ints[3*n:]
	for i, u := range users {
		pl.numPoints += u.Len()
		if opts.Variant != Segmented {
			e := newEntry(u, int32(i), pl.bounds)
			rr := geo.NewRect(e.first, e.last)
			if pl.mbr != nil {
				rr = u.MBR()
				pl.mbr[len(pl.slab)] = rr
			}
			pl.descend(len(pl.slab), e.first, rr)
			pl.slab = append(pl.slab, e)
			continue
		}
		// One polyline sum per trajectory: Length computes from the
		// points, so asking it per segment would make a build quadratic
		// in M.
		length := u.Length()
		for j := 0; j < u.NumSegments(); j++ {
			e := newSegmentEntry(u, int32(i), j, pl.bounds)
			pl.ub[len(pl.slab)] = segmentUB(u, j, length)
			pl.descend(len(pl.slab), e.first, geo.NewRect(e.first, e.last))
			pl.slab = append(pl.slab, e)
		}
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	for i := range pl.perm {
		pl.perm[i] = int32(i)
	}
	if opts.Ordering == ZOrder {
		pl.keys = make([]zKey, n)
	}
	if par > 1 && n >= parallelBuildCutoff {
		pl.splitParallel(par)
	} else {
		pl.top = pl.split(pl.bounds, 0, 0, int32(n))
	}
	pl.path, pl.stop, pl.scratch, pl.keys = nil, nil, nil, nil
	return pl, nil
}

// descend routes slab entry p, whose first point is first and routing
// rectangle rr, from the root down the chain of quadrant cells split
// plans, to the depth at which it stays, and records the route.
func (pl *plan) descend(p int, first geo.Point, rr geo.Rect) {
	rect := pl.bounds
	d := 0
	for ; d < pl.opts.MaxDepth; d++ {
		q, child, ok := routeQuadrant(rect, first, rr)
		if !ok {
			break
		}
		if d == 32*pl.words {
			pl.widen()
		}
		pl.path[p*pl.words+d/32] |= uint64(q) << (2 * (d % 32))
		if child == rect {
			pl.stop[p] = ^int32(d)
			return
		}
		rect = child
	}
	pl.stop[p] = int32(d)
}

// widen makes room for 32 more levels in every entry's path.
func (pl *plan) widen() {
	w := pl.words + 1
	path := make([]uint64, len(pl.stop)*w)
	for p := range pl.stop {
		copy(path[p*w:], pl.path[p*pl.words:(p+1)*pl.words])
	}
	pl.path, pl.words = path, w
}

// quadrant returns the quadrant slab entry p routes to from a node at
// depth, or -1 when it stays there.
func (pl *plan) quadrant(p int32, depth int) int {
	if s := pl.stop[p]; s < 0 {
		depth = min(depth, int(^s))
	} else if depth >= int(s) {
		return -1
	}
	return int(pl.path[int(p)*pl.words+depth/32] >> (2 * (depth % 32)) & 3)
}

// parallelBuildCutoff is the subtree entry count below which handing a
// subtree to another goroutine costs more than planning it inline.
const parallelBuildCutoff = 2048

// open plans the node of the cell rect at depth over perm[lo:hi] short of
// its children: it partitions the range, sorts the node's own list (a
// Z-ordered one) and sums its own bounds; cut holds the children's ranges
// unless the node is a leaf.
func (pl *plan) open(rect geo.Rect, depth int, lo, hi int32, cut *[6]int32) planNode {
	n := planNode{rect: rect, lo: lo, own: hi, child: [4]int32{-1, -1, -1, -1}, leaf: true}
	if !pl.opts.leafFits(int(hi-lo), depth) && pl.partition(depth, lo, hi, cut) {
		n.leaf, n.own = false, cut[1]
	}
	own := pl.perm[lo:n.own]
	if pl.opts.Ordering == ZOrder {
		keys := pl.keys[lo:n.own]
		for i, p := range own {
			e := &pl.slab[p]
			keys[i] = zKey{e.startCode, e.endCode, p}
		}
		// The permutation pdqsort makes depends only on the comparisons'
		// outcomes, so ties keep the order sorting the indices by their
		// entries' codes would give.
		slices.SortFunc(keys, cmpZKey)
		for i := range keys {
			own[i] = keys[i].at
		}
	}
	if pl.ub == nil {
		c := float64(len(own))
		n.ownUB = [service.NumScenarios]float64{c, c, c}
	} else {
		for _, p := range own {
			for sc := range n.ownUB {
				n.ownUB[sc] += pl.ub[p][sc]
			}
		}
	}
	return n
}

// closeNode merges the children's bounds into n's, in quadrant order so
// every float matches whichever goroutine planned them, and appends n
// after them.
func (pl *plan) closeNode(n *planNode) int32 {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	n.treeUB = n.ownUB
	for _, c := range n.child {
		if c >= 0 {
			for sc := range n.treeUB {
				n.treeUB[sc] += pl.nodes[c].treeUB[sc]
			}
		}
	}
	pl.nodes = append(pl.nodes, *n)
	return int32(len(pl.nodes) - 1)
}

// split plans the subtree of the cell rect at depth over perm[lo:hi] on
// the calling goroutine and returns its root node.
func (pl *plan) split(rect geo.Rect, depth int, lo, hi int32) int32 {
	var cut [6]int32
	n := pl.open(rect, depth, lo, hi, &cut)
	if !n.leaf {
		for q := range n.child {
			if clo, chi := cut[q+1], cut[q+2]; clo < chi {
				n.child[q] = pl.split(rect.Quadrant(q), depth+1, clo, chi)
			}
		}
	}
	return pl.closeNode(&n)
}

// subtree is a range of perm to plan as the cell rect at depth: the
// child in quadrant q of opened node parent (-1 for the root). A subtree
// of the frontier records the goroutine that plans it and its root node.
type subtree struct {
	rect      geo.Rect
	depth     int
	lo, hi    int32
	parent, q int
	owner     int
	root      int32
}

func (s *subtree) size() int32 { return s.hi - s.lo }

// openNode is a node splitParallel opened itself: child q of opened node
// parent, or the root.
type openNode struct {
	node      planNode
	parent, q int
}

// splitParallel plans the tree on par goroutines, the caller's among
// them. The caller deals the frontier of unplanned subtrees — at first
// the root — to the goroutines, largest first, each to the one with the
// fewest entries so far; while the most loaded goroutine would get more
// than 9/8 of an even share, it opens the largest subtree (of at least
// twice parallelBuildCutoff entries) and deals again. Then each goroutine
// plans its share serially. So which goroutine plans what — and what the
// build allocates — depends only on subtree sizes, never on the
// schedule; a parallel plan is the serial one, node for node.
func (pl *plan) splitParallel(par int) {
	front := make([]subtree, 1, 64)
	front[0] = subtree{rect: pl.bounds, hi: int32(len(pl.perm)), parent: -1}
	opened := make([]openNode, 0, 16)
	load := make([]int64, par)
	for !pl.deal(front, load) && front[0].size() >= 2*parallelBuildCutoff {
		s := front[0]
		front = front[1:]
		var cut [6]int32
		n := pl.open(s.rect, s.depth, s.lo, s.hi, &cut)
		if !n.leaf {
			for q := range n.child {
				if clo, chi := cut[q+1], cut[q+2]; clo < chi {
					front = append(front, subtree{rect: s.rect.Quadrant(q), depth: s.depth + 1, lo: clo, hi: chi, parent: len(opened), q: q})
				}
			}
		}
		opened = append(opened, openNode{n, s.parent, s.q})
	}
	var wg sync.WaitGroup
	for w := 1; w < par && load[w] > 0; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pl.splitShare(front, w)
		}()
	}
	pl.splitShare(front, 0)
	wg.Wait()
	// Close the opened nodes, children first.
	for _, s := range front {
		pl.place(opened, s.parent, s.q, s.root)
	}
	for k := len(opened) - 1; k >= 0; k-- {
		o := &opened[k]
		pl.place(opened, o.parent, o.q, pl.closeNode(&o.node))
	}
}

// deal sorts front largest first (ties in the order found) and gives
// each subtree to the goroutine with the fewest entries so far, loads in
// load. It reports whether the largest load is within 9/8 of an even
// share.
func (pl *plan) deal(front []subtree, load []int64) bool {
	slices.SortStableFunc(front, func(a, b subtree) int { return cmp.Compare(b.size(), a.size()) })
	clear(load)
	var total int64
	for i := range front {
		w := 0
		for v := range load {
			if load[v] < load[w] {
				w = v
			}
		}
		front[i].owner = w
		load[w] += int64(front[i].size())
		total += int64(front[i].size())
	}
	return 8*int64(len(load))*slices.Max(load) <= 9*total
}

// splitShare plans the frontier subtrees goroutine w owns.
func (pl *plan) splitShare(front []subtree, w int) {
	for i := range front {
		if s := &front[i]; s.owner == w {
			s.root = pl.split(s.rect, s.depth, s.lo, s.hi)
		}
	}
}

// place makes node id child q of opened node parent, or the root.
func (pl *plan) place(opened []openNode, parent, q int, id int32) {
	if parent < 0 {
		pl.top = id
	} else {
		opened[parent].node.child[q] = id
	}
}

// partition reorders perm[lo:hi] of a node at depth stably into the
// entries that stay at the node, then those routed to quadrants 0..3,
// with the ranges' bounds in cut. It reports false, leaving perm as it
// was, when nothing routes.
func (pl *plan) partition(depth int, lo, hi int32, cut *[6]int32) bool {
	var count [5]int32
	for _, p := range pl.perm[lo:hi] {
		count[pl.quadrant(p, depth)+1]++
	}
	if count[0] == hi-lo {
		return false
	}
	var next [5]int32
	cut[0] = lo
	for c := range count {
		next[c] = cut[c]
		cut[c+1] = cut[c] + count[c]
	}
	for _, p := range pl.perm[lo:hi] {
		c := pl.quadrant(p, depth) + 1
		pl.scratch[next[c]] = p
		next[c]++
	}
	copy(pl.perm[lo:hi], pl.scratch[lo:hi])
	return true
}

// mbrOf returns slab entry p's MBR: the held column on a FullTrajectory
// plan, the segment's span on a Segmented one, the trajectory's MBR on a
// TwoPoint one — its endpoints' unless it is multipoint.
func (pl *plan) mbrOf(p int32) geo.Rect {
	e := &pl.slab[p]
	switch {
	case pl.mbr != nil:
		return pl.mbr[p]
	case e.seg >= 0:
		return geo.NewRect(e.first, e.last)
	case e.multipoint:
		return pl.users[e.user].MBR()
	}
	return pairMBR(e.first, e.last)
}

// bfs returns the plan's node indices breadth first, children in quadrant
// order — the frozen layout's node order.
func (pl *plan) bfs() []int32 {
	order := make([]int32, 1, len(pl.nodes))
	order[0] = pl.top
	for i := 0; i < len(order); i++ {
		for _, c := range pl.nodes[order[i]].child {
			if c >= 0 {
				order = append(order, c)
			}
		}
	}
	return order
}
