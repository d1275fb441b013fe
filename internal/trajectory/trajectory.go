// Package trajectory defines the data model shared by every index and
// query in the library: user trajectories (sequences of visited points)
// and facility trajectories (routes with stop points, e.g. bus routes).
package trajectory

import (
	"errors"
	"fmt"
	"slices"
	"sync"

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

	// pin, when non-nil, keeps the backing store of Points reachable: a
	// trajectory restored from a mapped snapshot aliases its points onto
	// the file mapping, and the mapping's release is driven by a
	// finalizer on the pinned token. Heap trajectories leave it nil.
	pin any
}

// New builds a Trajectory and precomputes its length and bounding box.
func New(id ID, points []geo.Point) (*Trajectory, error) {
	if len(points) < 2 {
		return nil, fmt.Errorf("%w (id %d has %d)", ErrTooShort, id, len(points))
	}
	t := &Trajectory{ID: id, Points: points}
	t.mbr = geo.RectOf(points)
	for i := 1; i < len(points); i++ {
		t.length += points[i-1].Dist(points[i])
	}
	return t, nil
}

// FromParts builds a Trajectory adopting a precomputed length and MBR
// instead of deriving them from the points — the mapped-snapshot restore
// path, where points alias a checksummed file mapping and the cached
// geometry was recorded by the writer (which computed it with the same
// arithmetic New uses, so the values are bit-equal). pin, when non-nil,
// is retained for the life of the trajectory; see Trajectory.pin.
func FromParts(id ID, points []geo.Point, length float64, mbr geo.Rect, pin any) (*Trajectory, error) {
	t := new(Trajectory)
	if err := FromPartsInto(t, id, points, length, mbr, pin); err != nil {
		return nil, err
	}
	return t, nil
}

// FromPartsInto is FromParts writing into caller-provided storage
// instead of allocating: restore paths batch-allocate their
// trajectories in one arena, which is most of the difference between
// a mapped open and a heap restore at scale.
func FromPartsInto(dst *Trajectory, id ID, points []geo.Point, length float64, mbr geo.Rect, pin any) error {
	if len(points) < 2 {
		return fmt.Errorf("%w (id %d has %d)", ErrTooShort, id, len(points))
	}
	dst.ID = id
	dst.Points = points
	dst.length = length
	dst.mbr = mbr
	dst.pin = pin
	return nil
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

// Set is an ordered collection of user trajectories with ID lookup.
type Set struct {
	All  []*Trajectory
	byID map[ID]*Trajectory

	// lazy builds byID on first lookup for sets constructed with
	// NewSetLazy: restore paths validate uniqueness with a sort pass
	// (cheaper than a map build) and defer the map until someone
	// actually asks for ID lookup — often never for a frozen serving
	// index, and a measurable slice of a mapped open when they do.
	lazy sync.Once
}

// NewSet builds a Set from trajectories; duplicate IDs are rejected.
func NewSet(ts []*Trajectory) (*Set, error) {
	s := &Set{All: ts, byID: make(map[ID]*Trajectory, len(ts))}
	for _, t := range ts {
		if _, dup := s.byID[t.ID]; dup {
			return nil, fmt.Errorf("trajectory: duplicate id %d", t.ID)
		}
		s.byID[t.ID] = t
	}
	return s, nil
}

// NewSetLazy is NewSet with the ID map deferred to first lookup.
// Duplicate IDs are still rejected here — with a bitmap pass when the
// ID space is dense (the overwhelmingly common 0..n-1 corpus, and far
// cheaper than a map build) or a sorted scratch copy otherwise — so a
// corrupt snapshot fails at open, not at first query. Mutating methods
// (Add, Remove) remain valid: they materialize the map first.
func NewSetLazy(ts []*Trajectory) (*Set, error) {
	var maxID uint32
	for _, t := range ts {
		if uint32(t.ID) > maxID {
			maxID = uint32(t.ID)
		}
	}
	if uint64(maxID) <= 8*uint64(len(ts))+64 {
		seen := make([]uint64, maxID/64+1)
		for _, t := range ts {
			w, b := t.ID/64, uint(t.ID%64)
			if seen[w]&(1<<b) != 0 {
				return nil, fmt.Errorf("trajectory: duplicate id %d", t.ID)
			}
			seen[w] |= 1 << b
		}
	} else {
		ids := make([]uint32, len(ts))
		for i, t := range ts {
			ids[i] = uint32(t.ID)
		}
		slices.Sort(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				return nil, fmt.Errorf("trajectory: duplicate id %d", ids[i])
			}
		}
	}
	return &Set{All: ts}, nil
}

// idMap returns the ID index, building it on first use for lazy sets.
// Concurrent lookups are safe (sync.Once); mutators are exclusive with
// lookups by the callers' locking, as before.
func (s *Set) idMap() map[ID]*Trajectory {
	s.lazy.Do(func() {
		if s.byID == nil {
			m := make(map[ID]*Trajectory, len(s.All))
			for _, t := range s.All {
				m[t.ID] = t
			}
			s.byID = m
		}
	})
	return s.byID
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
	m := s.idMap()
	if _, dup := m[t.ID]; dup {
		return fmt.Errorf("trajectory: duplicate id %d", t.ID)
	}
	s.All = append(s.All, t)
	m[t.ID] = t
	return nil
}

// Remove deletes the trajectory with the given id, reporting whether it
// was present. Order of All is not preserved (swap-delete).
func (s *Set) Remove(id ID) bool {
	m := s.idMap()
	if _, ok := m[id]; !ok {
		return false
	}
	delete(m, id)
	for i, t := range s.All {
		if t.ID == id {
			last := len(s.All) - 1
			s.All[i] = s.All[last]
			s.All[last] = nil
			s.All = s.All[:last]
			return true
		}
	}
	return false
}

// ByID returns the trajectory with the given id, or nil.
func (s *Set) ByID(id ID) *Trajectory { return s.idMap()[id] }

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
