// Package tqtree implements the Trajectory Quadtree (TQ-tree), the paper's
// core contribution: a quadtree that stores trajectories in both internal
// and leaf nodes — each trajectory at the lowest node whose children split
// it — with per-node trajectory lists either kept flat (the TQ(B) baseline
// form) or bucketed and sorted by Z-order (the full TQ(Z) index).
//
// Every q-node carries `sub` upper bounds on the service value obtainable
// from its subtree, which the best-first kMaxRRST search in
// internal/query consumes.
//
// Every index is built as the frozen columnar layout (BuildFrozen, from
// the pointer-free build plan in plan.go) and queried as one. The pointer
// Tree, and Freeze from it, remain only as a second product of the same
// plan, for the structural tests and the repository benchmark's build
// timing.
package tqtree

import (
	"errors"
	"fmt"
	"sync"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
	"github.com/trajcover/trajcover/internal/zorder"
)

// Variant selects how trajectories are decomposed into stored entries.
type Variant int

const (
	// TwoPoint indexes each trajectory by its source and destination
	// only (the paper's base structure; exact for Binary service).
	TwoPoint Variant = iota
	// Segmented stores every segment of every trajectory as its own
	// entry (the paper's segmented generalization, S-TQ).
	Segmented
	// FullTrajectory stores each whole trajectory at the lowest node
	// fully containing it (the paper's full-trajectory generalization,
	// F-TQ).
	FullTrajectory
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case TwoPoint:
		return "twopoint"
	case Segmented:
		return "segmented"
	case FullTrajectory:
		return "fulltrajectory"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Ordering selects how each q-node's trajectory list is organized.
type Ordering int

const (
	// Basic keeps a flat list per q-node — the paper's TQ(B).
	Basic Ordering = iota
	// ZOrder keeps β-sized buckets sorted by (start, end) z-ids — the
	// paper's TQ(Z).
	ZOrder
)

// String implements fmt.Stringer.
func (o Ordering) String() string {
	switch o {
	case Basic:
		return "basic"
	case ZOrder:
		return "zorder"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// DefaultBeta is the default bucket/block size β.
const DefaultBeta = 64

// DefaultMaxDepth bounds quadtree depth.
const DefaultMaxDepth = 20

// Options configures tree construction.
type Options struct {
	Variant  Variant
	Ordering Ordering
	// Beta is the paper's β: the block size bounding both leaf lists
	// (before splitting) and z-node buckets. 0 means DefaultBeta.
	Beta int
	// MaxDepth bounds splitting. 0 means DefaultMaxDepth.
	MaxDepth int
	// Bounds is the root space. It is extended to cover the data; a
	// zero Rect derives bounds entirely from the data.
	Bounds geo.Rect
	// Parallelism bounds the number of goroutines Build and BuildFrozen
	// may run concurrently. 0 means runtime.GOMAXPROCS(0); 1 forces the
	// serial build. A parallel build is identical to the serial one:
	// subtrees are planned independently and their `sub` upper bounds
	// are merged in quadrant order after the joins.
	Parallelism int
}

// Tree is a TQ-tree over a set of user trajectories as linked nodes; no
// query runs on it (see the package doc).
type Tree struct {
	opts          Options
	bounds        geo.Rect
	root          *Node
	numTrajs      int
	numEntries    int
	numPoints     int // sizes Freeze's arena
	hasMultipoint bool
}

// Node is a q-node of the TQ-tree. Internal nodes hold the inter-node
// entries (those split by their children); leaves hold intra-node entries.
type Node struct {
	rect     geo.Rect
	depth    int
	leaf     bool
	children [4]*Node
	list     entryList
	ownUB    [service.NumScenarios]float64
	treeUB   [service.NumScenarios]float64
}

// Build constructs a TQ-tree over the given trajectories.
func Build(users []*trajectory.Trajectory, opts Options) (*Tree, error) {
	pl, err := planCorpus(users, opts)
	if err != nil {
		return nil, err
	}
	t := pl.Tree
	t.root = &Node{rect: t.bounds, treeUB: pl.nodes[pl.top].treeUB}
	t.adopt(pl, pl.sorted(), pl.top, t.root)
	return t, nil
}

// adopt makes n plan node id and grows its subtree; n's rect, depth and
// treeUB are the caller's. Lists are windows on sorted.
func (t *Tree) adopt(pl *plan, sorted []Entry, id int32, n *Node) {
	pn := &pl.nodes[id]
	n.leaf, n.ownUB = pn.leaf, pn.ownUB
	n.list = t.newList(sorted[pn.lo:pn.own:pn.own])
	for q, c := range pn.child {
		if c >= 0 {
			cn := &pl.nodes[c]
			n.children[q] = &Node{rect: cn.rect, depth: n.depth + 1, treeUB: cn.treeUB}
			t.adopt(pl, sorted, c, n.children[q])
		}
	}
}

func (t *Tree) noteTrajectory(u *trajectory.Trajectory) {
	t.numTrajs++
	t.numPoints += u.Len()
	if u.Len() > 2 {
		t.hasMultipoint = true
	}
}

func appendEntries(dst []Entry, v Variant, bounds geo.Rect, u *trajectory.Trajectory) []Entry {
	if v != Segmented {
		return append(dst, newEntry(u, bounds))
	}
	for i := 0; i < u.NumSegments(); i++ {
		dst = append(dst, newSegmentEntry(u, i, bounds))
	}
	return dst
}

// routingRect returns the rectangle that determines where an entry is
// stored: source/destination span for TwoPoint, the segment for
// Segmented, and the full MBR for FullTrajectory.
func routingRect(v Variant, e *Entry) geo.Rect {
	if v == FullTrajectory {
		return e.mbr
	}
	return geo.NewRect(e.first, e.last)
}

// routeQuadrant returns the child quadrant that wholly contains the
// entry's routing rectangle, or ok=false when the entry must stay at a
// node with this rect (it is "inter-node" there).
func routeQuadrant(v Variant, rect geo.Rect, e *Entry) (q int, ok bool) {
	q = rect.QuadrantOf(e.first)
	if rect.Quadrant(q).ContainsRect(routingRect(v, e)) {
		return q, true
	}
	return 0, false
}

// newList wraps entries, z-sorted already under ZOrder, as a node list.
func (t *Tree) newList(entries []Entry) entryList {
	if t.opts.Ordering == ZOrder {
		return newZList(entries, t.opts.Beta)
	}
	return &basicList{entries: entries}
}

// Root returns the root q-node.
func (t *Tree) Root() *Node { return t.root }

// NumTrajectories returns the number of user trajectories indexed.
func (t *Tree) NumTrajectories() int { return t.numTrajs }

// NumEntries returns the number of stored entries (equals trajectories
// for TwoPoint/FullTrajectory; total segments for Segmented).
func (t *Tree) NumEntries() int { return t.numEntries }

// ErrUnsupported is returned when a scenario cannot be answered exactly
// by a tree of this variant over the indexed data.
var ErrUnsupported = errors.New("tqtree: scenario unsupported by index variant for multipoint data")

// validateScenario checks that queries under sc are exact for a tree of
// the given variant over data with (or without) multipoint trajectories.
func validateScenario(v Variant, hasMultipoint bool, sc service.Scenario) error {
	if !sc.Valid() {
		return fmt.Errorf("tqtree: invalid scenario %d", int(sc))
	}
	if v == TwoPoint && sc != service.Binary && hasMultipoint {
		return fmt.Errorf("%w (variant %v, scenario %v)", ErrUnsupported, v, sc)
	}
	return nil
}

// ValidateScenarioFor is validateScenario exported for layers that
// assemble a logical corpus from several representations — the live
// epoch in internal/query validates its delta overlay (which has no tree
// of its own) with exactly the rule the frozen layout applies.
func ValidateScenarioFor(v Variant, hasMultipoint bool, sc service.Scenario) error {
	return validateScenario(v, hasMultipoint, sc)
}

// filterModeFor returns the zReduce candidate predicate that is sound for
// the given variant under the given scenario.
func filterModeFor(v Variant, sc service.Scenario) FilterMode {
	switch v {
	case TwoPoint, Segmented:
		if sc == service.PointCount {
			return NeedAny
		}
		return NeedBoth
	default: // FullTrajectory
		if sc == service.Binary {
			return NeedBoth
		}
		return NeedOverlap
	}
}

// ancestorsCanServe reports whether entries stored at proper ancestors of
// the smallest node containing a facility's EMBR can still contribute
// service under sc for the given variant.
func ancestorsCanServe(v Variant, sc service.Scenario) bool {
	switch v {
	case TwoPoint, Segmented:
		// Under NeedBoth semantics both endpoints would have to lie
		// inside the EMBR, hence inside a single child — contradicting
		// inter-node storage. Under PointCount (NeedAny) a single
		// endpoint inside the EMBR contributes, and an ancestor-stored
		// entry can have one endpoint there.
		return sc == service.PointCount
	default:
		// Whole multipoint trajectories can span children while some
		// points (or even source+destination) fall inside the EMBR.
		return true
	}
}

// ivScratchPool recycles the Morton-interval scratch ScoreNode hands to
// the z-list pruning. A stack array would escape through the zorder call,
// costing one heap allocation per visited node on the query hot path; the
// pool makes the steady state allocation-free and keeps ScoreNode safe
// for concurrent readers.
var ivScratchPool = sync.Pool{
	New: func() any {
		s := make([]zorder.Interval, 0, coverBudget)
		return &s
	},
}

// coverBudget bounds the Morton interval decomposition of an EMBR;
// coverMinList is the node list size below which a single naive
// corner-to-corner interval is used instead.
const (
	coverBudget  = 12
	coverMinList = 256
)

// pointCode returns the Morton code of p in the given root space.
func pointCode(bounds geo.Rect, p geo.Point) uint64 {
	return zorder.PointCode(bounds, p)
}

// Walk visits n and every descendant in depth-first order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for q := 0; q < 4; q++ {
		if c := n.children[q]; c != nil {
			c.Walk(fn)
		}
	}
}
