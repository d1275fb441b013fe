package trajectory

import (
	"slices"
	"strings"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
)

// TestFacilityTable: the constructor refuses offsets that do not carve
// the arena into rows, and an accepted table's facilities read back its
// columns — stops aliased and capped at each row's own end — in two
// allocations, or none in storage handed back.
func TestFacilityTable(t *testing.T) {
	stops := []geo.Point{{X: 1, Y: 2}, {X: 3, Y: 4}, {X: 5, Y: 6}, {X: 7, Y: 8}, {X: 9, Y: 10}}
	for _, tc := range []struct {
		name string
		ids  []ID
		off  []uint32
		want string
	}{
		{"offsets short", []ID{1, 2}, []uint32{0, 2}, "2 ids, 2 stop offsets"},
		{"offsets start past 0", []ID{1, 2}, []uint32{1, 2, 5}, "stop offsets run 1..5, want 0..5"},
		{"offsets end short", []ID{1, 2}, []uint32{0, 2, 4}, "stop offsets run 0..4, want 0..5"},
		{"offsets decrease", []ID{1, 2, 3}, []uint32{0, 4, 2, 5}, "stop offsets decrease at facility 2"},
	} {
		if _, err := NewFacilityTable(tc.ids, tc.off, stops); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to say %q", tc.name, err, tc.want)
		}
	}

	tab, err := NewFacilityTable([]ID{7, 3}, []uint32{0, 2, 5}, stops)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 || tab.TotalStops() != 5 || tab.ID(1) != 3 {
		t.Fatalf("Len %d, TotalStops %d, ID(1) %d", tab.Len(), tab.TotalStops(), tab.ID(1))
	}
	var facs []*Facility
	if allocs := testing.AllocsPerRun(10, func() { facs, err = tab.Facilities(nil, nil) }); err != nil || allocs != 2 {
		t.Fatalf("Facilities: %v, %.0f allocs, want 2", err, allocs)
	}
	for i, own := range [][]geo.Point{stops[0:2], stops[2:5]} {
		f, want := facs[i], MustNewFacility(tab.ID(i), own)
		if f.ID != want.ID || f.MBR() != want.MBR() || !slices.Equal(f.Stops, want.Stops) || &f.Stops[0] != &want.Stops[0] || cap(f.Stops) != len(f.Stops) {
			t.Fatalf("facility %d = %+v, want %+v aliasing the arena, capped", i, f, want)
		}
	}
	slab, ptrs := make([]Facility, 4), make([]*Facility, 0, 4)
	if allocs := testing.AllocsPerRun(10, func() { facs, err = tab.Facilities(slab, ptrs) }); err != nil || allocs != 0 || &facs[0] != &ptrs[:1][0] || facs[1] != &slab[1] {
		t.Fatalf("Facilities in room for 4: %v, %.0f allocs, want 0 in the storage given", err, allocs)
	}

	empty, err := NewFacilityTable([]ID{7, 3}, []uint32{0, 0, 5}, stops)
	if err != nil {
		t.Fatalf("a stopless row is a table: %v", err)
	}
	if _, err := empty.Facilities(nil, nil); err == nil || !strings.Contains(err.Error(), "facility 7 has no stops") {
		t.Fatalf("Facilities of a stopless row: %v", err)
	}
	var zero FacilityTable
	if facs, err := zero.Facilities(nil, nil); zero.Len() != 0 || zero.TotalStops() != 0 || len(facs) != 0 || err != nil {
		t.Fatalf("zero table: Len %d, %d facilities, %v", zero.Len(), len(facs), err)
	}
}
