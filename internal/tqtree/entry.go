package tqtree

import (
	"cmp"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Entry is the unit stored in a q-node's trajectory list: either a whole
// user trajectory (TwoPoint and FullTrajectory variants) or a single
// segment of one (Segmented variant).
//
// Each entry caches the Morton codes of its first and last point (in the
// tree's root space) — these are the paper's start/end z-ids — and its
// maximum possible service contribution per scenario, which the q-node
// `sub` upper bounds aggregate.
type Entry struct {
	// Traj is the parent user trajectory.
	Traj *trajectory.Trajectory
	// SegIdx is the segment index for Segmented entries, or -1 when the
	// entry is the whole trajectory.
	SegIdx int

	// first/last/mbr are cached copies of the entry's geometry: routing,
	// the z-node aggregates and the frozen entry columns read them
	// without chasing the trajectory pointer per entry.
	first, last geo.Point
	mbr         geo.Rect

	startCode uint64
	endCode   uint64
	ub        [service.NumScenarios]float64
}

// newEntry builds a whole-trajectory entry.
func newEntry(t *trajectory.Trajectory, bounds geo.Rect) Entry {
	e := Entry{Traj: t, SegIdx: -1, first: t.Source(), last: t.Dest(), mbr: t.MBR()}
	e.startCode = pointCode(bounds, e.first)
	e.endCode = pointCode(bounds, e.last)
	// A whole trajectory's normalized service is at most 1 in every
	// scenario.
	e.ub = [service.NumScenarios]float64{1, 1, 1}
	return e
}

// newSegmentEntry builds the i-th segment entry of t, whose length is
// length (t.Length(), computed once by the caller for all its segments).
func newSegmentEntry(t *trajectory.Trajectory, i int, length float64, bounds geo.Rect) Entry {
	e := Entry{Traj: t, SegIdx: i, first: t.Points[i], last: t.Points[i+1]}
	e.mbr = geo.NewRect(e.first, e.last)
	e.startCode = pointCode(bounds, e.first)
	e.endCode = pointCode(bounds, e.last)
	// Binary-over-segments counts each served segment as 1.
	e.ub[service.Binary] = 1
	// PointCount: the segment owns its start point; the final segment
	// also owns the trajectory's last point. Owned shares sum to 1 over
	// the whole trajectory.
	owned := 1
	if i == t.NumSegments()-1 {
		owned = 2
	}
	e.ub[service.PointCount] = float64(owned) / float64(t.Len())
	// Length: the segment's share of the total length.
	if length > 0 {
		e.ub[service.Length] = t.SegmentLength(i) / length
	}
	return e
}

// FilterMode selects the candidate predicate zReduce applies to entries
// against a facility component's EMBR. Which mode is correct depends on
// the index variant and query scenario; see Frozen.FilterModeFor.
type FilterMode int

const (
	// NeedBoth: an entry can only be served if both its first and last
	// point lie inside the EMBR (Binary service; Length over segments).
	NeedBoth FilterMode = iota
	// NeedAny: an entry can contribute if either endpoint lies inside
	// the EMBR (PointCount over two-point or segment entries).
	NeedAny
	// NeedOverlap: an entry can contribute if its MBR intersects the
	// EMBR (multipoint whole-trajectory entries, where interior points
	// may be served).
	NeedOverlap
)

// zAgg holds a z-node's pruning aggregates — up to β entries, consecutive
// in (start, end) z-id order — which BuildFrozen writes as the frozen
// bucket columns (TQ(Z)).
type zAgg struct {
	minStart uint64
	maxStart uint64
	startMBR geo.Rect // MBR of first points
	endMBR   geo.Rect // MBR of last points
	fullMBR  geo.Rect // union of entry MBRs
}

// reset makes a the aggregates of e alone.
func (a *zAgg) reset(e *Entry) {
	a.minStart, a.maxStart = e.startCode, e.startCode
	a.startMBR = geo.NewRect(e.first, e.first)
	a.endMBR = geo.NewRect(e.last, e.last)
	a.fullMBR = e.mbr
}

func (a *zAgg) extend(e *Entry) {
	if e.startCode < a.minStart {
		a.minStart = e.startCode
	}
	if e.startCode > a.maxStart {
		a.maxStart = e.startCode
	}
	a.startMBR = a.startMBR.ExtendPoint(e.first)
	a.endMBR = a.endMBR.ExtendPoint(e.last)
	a.fullMBR = a.fullMBR.ExtendRect(e.mbr)
}

// cmpEntry orders entries by (start, end) z-ids, the z-lists' order.
func cmpEntry(a, b *Entry) int {
	return cmp.Or(cmp.Compare(a.startCode, b.startCode), cmp.Compare(a.endCode, b.endCode))
}
