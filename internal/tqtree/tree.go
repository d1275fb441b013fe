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
// There is one build and one layout: BuildFrozen plans the corpus
// pointer-free (plan.go) and writes the plan as the frozen columns
// (frozen.go), which every index, snapshot and query reads.
package tqtree

import (
	"errors"
	"fmt"
	"sync"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
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
	// Parallelism bounds the number of goroutines BuildFrozen may run
	// concurrently. 0 means runtime.GOMAXPROCS(0); 1 forces the serial
	// build. A parallel build is identical to the serial one: subtrees are
	// planned independently and their `sub` upper bounds are merged in
	// quadrant order after the joins.
	Parallelism int
}

// routeQuadrant returns the child quadrant of the cell rect that wholly
// contains an entry's routing rectangle rr, whose first point is first,
// and that quadrant's cell; ok is false when the entry must stay at a node
// with this rect (it is "inter-node" there). The routing rectangle is
// what determines where an entry is stored: the source–destination span
// for TwoPoint, the segment for Segmented, the full MBR for
// FullTrajectory.
func routeQuadrant(rect geo.Rect, first geo.Point, rr geo.Rect) (q int, child geo.Rect, ok bool) {
	q = rect.QuadrantOf(first)
	if child = rect.Quadrant(q); child.ContainsRect(rr) {
		return q, child, true
	}
	return 0, child, false
}

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
