// Package trajectory defines the data model shared by every index and
// query in the library: user trajectories (sequences of visited points)
// and facility trajectories (routes with stop points, e.g. bus routes).
package trajectory

import (
	"errors"
	"fmt"
	"slices"

	"github.com/trajcover/trajcover/internal/geo"
)

// ID identifies a trajectory within its dataset.
type ID uint32

// ErrTooShort is returned when constructing a trajectory with fewer than
// two points; every query in this library is defined over source →
// destination movements, so single-point "trajectories" are rejected.
var ErrTooShort = errors.New("trajectory: need at least 2 points")

// Trajectory is a user trajectory: an ordered sequence of at least two
// point locations. Construct with New so the cached geometry (length, MBR)
// is consistent with Points; treat Points as read-only afterwards.
type Trajectory struct {
	ID     ID
	Points []geo.Point

	length float64
	mbr    geo.Rect
}

// New builds a Trajectory and precomputes its length and bounding box.
func New(id ID, points []geo.Point) (*Trajectory, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("%w (id %d has %d)", ErrTooShort, id, len(points))
	}
	return &Trajectory{ID: id, Points: points, length: lengthOf(points), mbr: geo.RectOf(points)}, nil
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

// Length returns the total polyline length.
func (t *Trajectory) Length() float64 { return t.length }

// MBR returns the minimum bounding rectangle of the points.
func (t *Trajectory) MBR() geo.Rect { return t.mbr }

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
// facility needs at least one stop.
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

// Len returns the number of stops.
func (f *Facility) Len() int { return len(f.Stops) }

// MBR returns the minimum bounding rectangle of the stops.
func (f *Facility) MBR() geo.Rect { return f.mbr }

// EMBR returns the extended MBR: the stop MBR grown by the distance
// threshold psi. Any user point servable by f lies inside EMBR(psi).
func (f *Facility) EMBR(psi float64) geo.Rect { return f.mbr.Expand(psi) }

// Set is a mutable, ordered collection of user trajectories with ID
// lookup — the corpus the quadtree baseline and the brute-force oracle
// read. (A TQ-tree index keeps its corpus in a Table instead.)
type Set struct {
	All  []*Trajectory
	byID map[ID]setEntry
}

// setEntry is what the ID index holds: the trajectory itself, so a
// lookup is one probe, and its position in All, so Remove is too.
type setEntry struct {
	t   *Trajectory
	pos int
}

// NewSet builds a Set from trajectories; duplicate IDs are rejected. The
// set keeps its own copy of the slice, so Add and Remove never reorder or
// grow the caller's.
func NewSet(ts []*Trajectory) (*Set, error) {
	s := &Set{All: slices.Clone(ts), byID: make(map[ID]setEntry, len(ts))}
	for i, t := range s.All {
		if _, dup := s.byID[t.ID]; dup {
			return nil, fmt.Errorf("trajectory: duplicate id %d", t.ID)
		}
		s.byID[t.ID] = setEntry{t, i}
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

// Add appends a trajectory to the set; duplicate IDs are rejected.
func (s *Set) Add(t *Trajectory) error {
	if _, dup := s.byID[t.ID]; dup {
		return fmt.Errorf("trajectory: duplicate id %d", t.ID)
	}
	s.byID[t.ID] = setEntry{t, len(s.All)}
	s.All = append(s.All, t)
	return nil
}

// Remove deletes the trajectory with the given id, reporting whether it
// was present. Order of All is not preserved (swap-delete).
func (s *Set) Remove(id ID) bool {
	e, ok := s.byID[id]
	if !ok {
		return false
	}
	delete(s.byID, id)
	last := len(s.All) - 1
	if e.pos != last {
		moved := s.All[last]
		s.All[e.pos] = moved
		s.byID[moved.ID] = setEntry{moved, e.pos}
	}
	s.All[last] = nil
	s.All = s.All[:last]
	return true
}

// ByID returns the trajectory with the given id, or nil.
func (s *Set) ByID(id ID) *Trajectory { return s.byID[id].t }

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
