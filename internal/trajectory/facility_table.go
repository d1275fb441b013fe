package trajectory

import (
	"fmt"

	"github.com/trajcover/trajcover/internal/geo"
)

// FacilityTable is a batch of candidate facilities laid out in columns,
// the way a Table lays out users: one ID per facility, len+1 stop offsets,
// and one stop arena, facility i's stops being stops[off[i]:off[i+1]]. It
// is what a query's facilities decode into — from a JSON body or an
// exchange frame — in a constant number of allocations whatever their
// number, and what the []*Facility the query API takes is built from.
//
// A table never mutates its columns, and the slices it hands out alias
// them: treat them as read-only. The zero value is the empty batch.
type FacilityTable struct {
	ids   []ID
	off   []uint32
	stops []geo.Point
}

// NewFacilityTable assembles a table from its three columns, which it
// adopts, not copies. The offsets must number len(ids)+1, start at 0,
// never decrease, and end at len(stops). A facility may have no stops
// here; Facilities refuses one.
func NewFacilityTable(ids []ID, off []uint32, stops []geo.Point) (FacilityTable, error) {
	n := len(ids)
	if len(off) != n+1 {
		return FacilityTable{}, fmt.Errorf("trajectory: facility table of %d ids, %d stop offsets", n, len(off))
	}
	if off[0] != 0 || uint64(off[n]) != uint64(len(stops)) {
		return FacilityTable{}, fmt.Errorf("trajectory: stop offsets run %d..%d, want 0..%d", off[0], off[n], len(stops))
	}
	for i, id := range ids {
		if off[i+1] < off[i] {
			return FacilityTable{}, fmt.Errorf("trajectory: stop offsets decrease at facility %d", id)
		}
	}
	return FacilityTable{ids: ids, off: off, stops: stops}, nil
}

// Len returns the number of facilities.
func (t FacilityTable) Len() int { return len(t.ids) }

// ID returns the ID of facility i.
func (t FacilityTable) ID(i int) ID { return t.ids[i] }

// Stops returns the stops of facility i, capped at its own last stop, so
// an append reallocates instead of overwriting the next facility's.
func (t FacilityTable) Stops(i int) []geo.Point {
	lo, hi := t.off[i], t.off[i+1]
	return t.stops[lo:hi:hi]
}

// Columns returns the table's three columns (read-only); the zero
// table's offsets are nil.
func (t FacilityTable) Columns() (ids []ID, off []uint32, stops []geo.Point) {
	return t.ids, t.off, t.stops
}

// TotalStops returns the number of stops across the table.
func (t FacilityTable) TotalStops() int { return len(t.stops) }

// Facilities returns the table as the []*Facility the query API takes: a
// slab of Facility values and the pointers into it, each facility's Stops
// aliasing the arena as Stops returns it. They are built in slab and ptrs
// when both have capacity for Len() facilities, and otherwise in two
// allocations whatever the table's length. A facility with no stops is
// an error.
func (t FacilityTable) Facilities(slab []Facility, ptrs []*Facility) ([]*Facility, error) {
	n := len(t.ids)
	if cap(slab) < n || cap(ptrs) < n {
		slab, ptrs = make([]Facility, n), make([]*Facility, n)
	}
	slab, ptrs = slab[:n], ptrs[:n]
	for i := range slab {
		f, err := MakeFacility(t.ids[i], t.Stops(i))
		if err != nil {
			return nil, err
		}
		slab[i], ptrs[i] = f, &slab[i]
	}
	return ptrs, nil
}
