package tqtree

import (
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Entry is the unit stored in a q-node's trajectory list: either a whole
// user trajectory (TwoPoint and FullTrajectory variants) or a single
// segment of one (Segmented variant). It is one record of the build's
// slab, which the plan routes and sorts and BuildFrozen writes as
// columns.
//
// An entry caches its endpoints and their Morton codes in the tree's root
// space — the paper's start/end z-ids — and names its trajectory by ID and
// by index into the build's input. It holds no pointer, so the slab costs
// the collector nothing to scan, and nothing its variant can derive: a
// whole trajectory's per-scenario bound is 1, and a two-point
// trajectory's table row and MBR are its endpoints. The plan holds what
// only one variant needs beside the slab: a FullTrajectory entry's MBR
// and a segment's bounds. 64 bytes an entry.
type Entry struct {
	first, last        geo.Point
	startCode, endCode uint64

	id   trajectory.ID
	user int32 // the trajectory's index in the build's input
	seg  int32 // the segment index of a Segmented entry, -1 for a whole trajectory
	// multipoint is set when the trajectory has more than two points:
	// only then does the build read the input for its table row or MBR.
	multipoint bool
}

// newEntry builds a whole-trajectory entry of t, input user.
func newEntry(t *trajectory.Trajectory, user int32, bounds geo.Rect) Entry {
	return Entry{
		first: t.Source(), last: t.Dest(),
		startCode: pointCode(bounds, t.Source()), endCode: pointCode(bounds, t.Dest()),
		id: t.ID, user: user, seg: -1, multipoint: t.Len() > 2,
	}
}

// newSegmentEntry builds the i-th segment entry of t, input user.
func newSegmentEntry(t *trajectory.Trajectory, user int32, i int, bounds geo.Rect) Entry {
	a, b := t.Points[i], t.Points[i+1]
	return Entry{
		first: a, last: b,
		startCode: pointCode(bounds, a), endCode: pointCode(bounds, b),
		id: t.ID, user: user, seg: int32(i), multipoint: t.Len() > 2,
	}
}

// segmentUB is the i-th segment of t's maximum service contribution per
// scenario; length is t.Length(), summed once by the caller for all its
// segments. A whole trajectory's normalized service is at most 1 in
// every scenario.
func segmentUB(t *trajectory.Trajectory, i int, length float64) (ub [service.NumScenarios]float64) {
	// Binary-over-segments counts each served segment as 1.
	ub[service.Binary] = 1
	// PointCount: the segment owns its start point; the final segment
	// also owns the trajectory's last point. Owned shares sum to 1 over
	// the whole trajectory.
	owned := 1
	if i == t.NumSegments()-1 {
		owned = 2
	}
	ub[service.PointCount] = float64(owned) / float64(t.Len())
	// Length: the segment's share of the total length.
	if length > 0 {
		ub[service.Length] = t.SegmentLength(i) / length
	}
	return ub
}

// pairMBR is the MBR of the two points a and b as Trajectory.MBR computes
// it, which a two-point trajectory's MBR must equal bit for bit.
func pairMBR(a, b geo.Point) geo.Rect {
	return geo.Rect{MinX: a.X, MinY: a.Y, MaxX: a.X, MaxY: a.Y}.ExtendPoint(b)
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

// reset makes a the aggregates of one entry: its start code, endpoints
// and MBR.
func (a *zAgg) reset(start uint64, first, last geo.Point, mbr geo.Rect) {
	a.minStart, a.maxStart = start, start
	a.startMBR = geo.NewRect(first, first)
	a.endMBR = geo.NewRect(last, last)
	a.fullMBR = mbr
}

// extend adds one entry to a.
func (a *zAgg) extend(start uint64, first, last geo.Point, mbr geo.Rect) {
	if start < a.minStart {
		a.minStart = start
	}
	if start > a.maxStart {
		a.maxStart = start
	}
	a.startMBR = a.startMBR.ExtendPoint(first)
	a.endMBR = a.endMBR.ExtendPoint(last)
	a.fullMBR = a.fullMBR.ExtendRect(mbr)
}
