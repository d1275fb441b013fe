package tqtree

// The build plan: one pointer-free partition of a slab of entries into
// q-nodes, which BuildFrozen writes as columns. Only an []int32
// permutation of slab indices moves; in it each node owns one range: its
// own list, then its children's.

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// plan is the partition of slab under opts, with the header the frozen
// layout takes over: the root space and the corpus counts.
type plan struct {
	opts          Options
	bounds        geo.Rect
	numTrajs      int
	numEntries    int
	numPoints     int // sizes the trajectory table's arena
	hasMultipoint bool

	slab []Entry
	perm []int32

	mu    sync.Mutex // guards nodes: subtrees are planned concurrently
	nodes []planNode // children before parents
	top   int32

	// Scratch indexed like perm: concurrent subtrees use disjoint ranges.
	scratch []int32
	class   []uint8

	slots atomic.Int64 // extra goroutines still allowed
}

// leafFits is the leaf rule: a node of n entries at depth stays a leaf —
// as does one whose entries all straddle its children.
func (o *Options) leafFits(n, depth int) bool {
	return n <= o.Beta || depth >= o.MaxDepth
}

// planCorpus lays the users' entries out in one slab over the root space
// (opts.Bounds extended to the data) and plans the tree over it.
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
	pl := &plan{opts: opts, bounds: opts.Bounds}
	n := 0
	for _, u := range users {
		pl.bounds = pl.bounds.ExtendRect(u.MBR())
		if n++; opts.Variant == Segmented {
			n += u.NumSegments() - 1
		}
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("tqtree: %d entries exceed int32 addressing", n)
	}
	pl.numEntries = n
	slab := make([]Entry, 0, n)
	for _, u := range users {
		pl.numTrajs++
		pl.numPoints += u.Len()
		pl.hasMultipoint = pl.hasMultipoint || u.Len() > 2
		slab = appendEntries(slab, opts.Variant, pl.bounds, u)
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	pl.slab = slab
	pl.perm = make([]int32, n)
	for i := range pl.perm {
		pl.perm[i] = int32(i)
	}
	pl.scratch = make([]int32, n)
	pl.class = make([]uint8, n)
	pl.slots.Store(int64(par - 1))
	pl.top = pl.split(pl.bounds, 0, 0, int32(n))
	pl.scratch, pl.class = nil, nil
	return pl, nil
}

// parallelBuildCutoff is the subtree entry count below which fanning out
// a goroutine costs more than planning inline.
const parallelBuildCutoff = 2048

// split plans the subtree of the cell rect at depth over perm[lo:hi] and
// returns its root node. Large subtrees run on goroutines within the slot
// budget; bounds merge after the joins in quadrant order, so every float
// matches the serial plan's.
func (pl *plan) split(rect geo.Rect, depth int, lo, hi int32) int32 {
	n := planNode{rect: rect, lo: lo, own: hi, child: [4]int32{-1, -1, -1, -1}, leaf: true}
	var cut [6]int32
	if !pl.opts.leafFits(int(hi-lo), depth) && pl.partition(rect, lo, hi, &cut) {
		n.leaf, n.own = false, cut[1]
	}
	own := pl.perm[lo:n.own]
	if pl.opts.Ordering == ZOrder {
		slices.SortFunc(own, func(a, b int32) int { return cmpEntry(&pl.slab[a], &pl.slab[b]) })
	}
	for _, p := range own {
		for sc := range n.ownUB {
			n.ownUB[sc] += pl.slab[p].ub[sc]
		}
	}
	n.treeUB = n.ownUB
	if !n.leaf {
		var sub [4]chan int32
		for q := range sub {
			clo, chi := cut[q+1], cut[q+2]
			switch {
			case clo == chi:
			case chi-clo >= parallelBuildCutoff && pl.acquire():
				c := make(chan int32, 1)
				go func() {
					c <- pl.split(rect.Quadrant(q), depth+1, clo, chi)
					pl.slots.Add(1)
				}()
				sub[q] = c
			default:
				n.child[q] = pl.split(rect.Quadrant(q), depth+1, clo, chi)
			}
		}
		for q, c := range sub {
			if c != nil {
				n.child[q] = <-c
			}
		}
	}
	pl.mu.Lock()
	for _, c := range n.child {
		if c >= 0 {
			for sc := range n.treeUB {
				n.treeUB[sc] += pl.nodes[c].treeUB[sc]
			}
		}
	}
	pl.nodes = append(pl.nodes, n)
	id := int32(len(pl.nodes) - 1)
	pl.mu.Unlock()
	return id
}

// acquire takes a goroutine slot if one is free.
func (pl *plan) acquire() bool {
	if pl.slots.Add(-1) >= 0 {
		return true
	}
	pl.slots.Add(1)
	return false
}

// partition reorders perm[lo:hi] stably into the entries that stay at the
// cell, then those routed to quadrants 0..3, with the ranges' bounds in
// cut. It reports false, leaving perm as it was, when nothing routes.
func (pl *plan) partition(rect geo.Rect, lo, hi int32, cut *[6]int32) bool {
	var count [5]int32
	for i := lo; i < hi; i++ {
		c := uint8(0)
		if q, ok := routeQuadrant(pl.opts.Variant, rect, &pl.slab[pl.perm[i]]); ok {
			c = uint8(q + 1)
		}
		pl.class[i] = c
		count[c]++
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
	for i := lo; i < hi; i++ {
		pl.scratch[next[pl.class[i]]] = pl.perm[i]
		next[pl.class[i]]++
	}
	copy(pl.perm[lo:hi], pl.scratch[lo:hi])
	return true
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
