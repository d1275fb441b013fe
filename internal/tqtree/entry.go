package tqtree

import (
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

// newSegmentEntry builds the i-th segment entry of t.
func newSegmentEntry(t *trajectory.Trajectory, i int, bounds geo.Rect) Entry {
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
	if L := t.Length(); L > 0 {
		e.ub[service.Length] = t.SegmentLength(i) / L
	}
	return e
}
