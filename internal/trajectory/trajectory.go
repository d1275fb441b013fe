// Package trajectory defines the data model shared by every index and
// query in the library: user trajectories (sequences of visited points)
// and facility trajectories (routes with stop points, e.g. bus routes).
package trajectory

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/trajcover/trajcover/internal/geo"
)

// ID identifies a trajectory within its dataset.
type ID uint32

// ErrTooShort is returned when constructing a trajectory with fewer than
// two points; every query in this library is defined over source →
// destination movements, so single-point "trajectories" are rejected.
var ErrTooShort = errors.New("trajectory: need at least 2 points")

// ErrNotFinite is returned for geometry that is not finite: a NaN or ±Inf
// coordinate, or a trajectory whose length overflows a float64. Bounds,
// lengths and service values computed over such geometry are NaN or
// infinite, so no index or query accepts it.
var ErrNotFinite = errors.New("trajectory: geometry is not finite")

// Trajectory is a user trajectory: an ordered sequence of at least two
// point locations. It holds its ID and its points and nothing else, 32
// bytes: Length and MBR compute from the points on each call. New
// validates at least two points and a finite length (so finite
// coordinates); treat Points as read-only afterwards.
type Trajectory struct {
	ID     ID
	Points []geo.Point
}

// New builds a Trajectory over points after Validate's checks.
func New(id ID, points []geo.Point) (*Trajectory, error) {
	t := &Trajectory{ID: id, Points: points}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// Validate reports whether t is a trajectory every index accepts: at
// least two points (ErrTooShort) and a finite length (ErrNotFinite) —
// the rule NewTable applies to each row, so a trajectory that passes is
// never refused by a later rebuild.
func (t *Trajectory) Validate() error {
	if len(t.Points) < 2 {
		return fmt.Errorf("%w (id %d has %d)", ErrTooShort, t.ID, len(t.Points))
	}
	if !finite(lengthOf(t.Points)) {
		return notFinite(t.ID, t.Points)
	}
	return nil
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// firstNonFinite returns the index of the first point with a NaN or ±Inf
// coordinate, or -1.
func firstNonFinite(points []geo.Point) int {
	for i, p := range points {
		if !finite(p.X) || !finite(p.Y) {
			return i
		}
	}
	return -1
}

// notFinite names the first non-finite point of points, or, when every
// coordinate is finite, the length that overflows.
func notFinite(id ID, points []geo.Point) error {
	if i := firstNonFinite(points); i >= 0 {
		return fmt.Errorf("%w (id %d point %d is %v)", ErrNotFinite, id, i, points[i])
	}
	return fmt.Errorf("%w (id %d has length %v)", ErrNotFinite, id, lengthOf(points))
}

// MustNew is New but panics on error; intended for tests and generators
// that construct trajectories from known-valid data.
func MustNew(id ID, points []geo.Point) *Trajectory {
	t, err := New(id, points)
	if err != nil {
		panic(err)
	}
	return t
}

// Len returns the number of points.
func (t *Trajectory) Len() int { return len(t.Points) }

// NumSegments returns the number of segments (Len-1).
func (t *Trajectory) NumSegments() int { return len(t.Points) - 1 }

// Source returns the first point.
func (t *Trajectory) Source() geo.Point { return t.Points[0] }

// Dest returns the last point.
func (t *Trajectory) Dest() geo.Point { return t.Points[len(t.Points)-1] }

// Length returns the total polyline length, summed left to right
// (lengthOf): the bits Table.Length gives for the same points.
func (t *Trajectory) Length() float64 { return lengthOf(t.Points) }

// MBR returns the minimum bounding rectangle of the points.
func (t *Trajectory) MBR() geo.Rect { return geo.RectOf(t.Points) }

// SegmentLength returns the length of segment i (between points i and i+1).
func (t *Trajectory) SegmentLength(i int) float64 {
	return t.Points[i].Dist(t.Points[i+1])
}

// Facility is a candidate facility trajectory: a route identified by its
// ordered stop points (pick-up/drop-off locations). Construct with
// NewFacility; treat Stops as read-only afterwards.
type Facility struct {
	ID    ID
	Stops []geo.Point

	mbr geo.Rect
}

// NewFacility builds a Facility and precomputes its bounding box. A
// facility needs at least one stop, every coordinate finite
// (ErrNotFinite).
func NewFacility(id ID, stops []geo.Point) (*Facility, error) {
	f, err := MakeFacility(id, stops)
	if err != nil {
		return nil, err
	}
	return &f, nil
}

// MakeFacility is NewFacility by value, for a caller that lays a whole
// request's facilities out in one slab instead of allocating each.
func MakeFacility(id ID, stops []geo.Point) (Facility, error) {
	if len(stops) == 0 {
		return Facility{}, fmt.Errorf("trajectory: facility %d has no stops", id)
	}
	if i := firstNonFinite(stops); i >= 0 {
		return Facility{}, fmt.Errorf("%w (facility %d stop %d is %v)", ErrNotFinite, id, i, stops[i])
	}
	return Facility{ID: id, Stops: stops, mbr: geo.RectOf(stops)}, nil
}

// MustNewFacility is NewFacility but panics on error.
func MustNewFacility(id ID, stops []geo.Point) *Facility {
	f, err := NewFacility(id, stops)
	if err != nil {
		panic(err)
	}
	return f
}

// MBR returns the minimum bounding rectangle of the stops.
func (f *Facility) MBR() geo.Rect { return f.mbr }

// EMBR returns the extended MBR: the stop MBR grown by the distance
// threshold psi. Any user point servable by f lies inside EMBR(psi).
func (f *Facility) EMBR(psi float64) geo.Rect { return f.mbr.Expand(psi) }

// Set is an ordered collection of user trajectories with ID lookup — the corpus the quadtree baseline and the brute-force oracle
// read. (A TQ-tree index keeps its corpus in a Table instead.)
type Set struct {
	All  []*Trajectory
	byID map[ID]*Trajectory
}

// NewSet builds a Set from trajectories; duplicate IDs and trajectories
// that fail Validate are rejected. The set keeps its own copy of the
// slice, so later changes to the caller's do not reach it.
func NewSet(ts []*Trajectory) (*Set, error) {
	s := &Set{All: slices.Clone(ts), byID: make(map[ID]*Trajectory, len(ts))}
	for _, t := range s.All {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if _, dup := s.byID[t.ID]; dup {
			return nil, fmt.Errorf("trajectory: duplicate id %d", t.ID)
		}
		s.byID[t.ID] = t
	}
	return s, nil
}

// MustNewSet is NewSet but panics on error.
func MustNewSet(ts []*Trajectory) *Set {
	s, err := NewSet(ts)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of trajectories in the set.
func (s *Set) Len() int { return len(s.All) }

// ByID returns the trajectory with the given id, or nil.
func (s *Set) ByID(id ID) *Trajectory { return s.byID[id] }

// Bounds returns the MBR of every trajectory in the set; ok is false for
// an empty set.
func (s *Set) Bounds() (geo.Rect, bool) {
	if len(s.All) == 0 {
		return geo.Rect{}, false
	}
	r := s.All[0].MBR()
	for _, t := range s.All[1:] {
		r = r.ExtendRect(t.MBR())
	}
	return r, true
}

// TotalPoints returns the total number of points across the set.
func (s *Set) TotalPoints() int {
	n := 0
	for _, t := range s.All {
		n += t.Len()
	}
	return n
}
