package trajectory

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
)

// tableTestUsers returns n trajectories with sparse, unordered IDs: of 2
// to 6 points each when multipoint, of two otherwise.
func tableTestUsers(n int, seed int64, multipoint bool) []*Trajectory {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(4 * n)
	users := make([]*Trajectory, n)
	for i := range users {
		np := 2
		if multipoint {
			np += rng.Intn(5)
		}
		pts := make([]geo.Point, np)
		for j := range pts {
			pts[j] = geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		users[i] = MustNew(ID(ids[i]), pts)
	}
	return users
}

// TestTableMirrorsTrajectories: on both layouts — a two-point corpus,
// whose table holds no offset or length column, and a multipoint one —
// every accessor of a built table reads back what was appended: IDs,
// points, ends, point counts and lengths bit for bit. Ordinals are dense
// in append order, lookup finds exactly the IDs present, a view is
// indistinguishable from the trajectory it was copied from, and the
// footprint is what the layout holds: 40 bytes a two-point trajectory,
// 20 beside the points on a multipoint table.
func TestTableMirrorsTrajectories(t *testing.T) {
	for _, c := range []struct {
		name       string
		multipoint bool
	}{{"two-point", false}, {"multipoint", true}} {
		t.Run(c.name, func(t *testing.T) { testTableMirrors(t, tableTestUsers(300, 1, c.multipoint), c.multipoint) })
	}
}

func testTableMirrors(t *testing.T, users []*Trajectory, multipoint bool) {
	tb := NewTableBuilder(0, 0) // no hints: columns grow, Build trims
	for i, u := range users {
		if ord := tb.Append(u); int(ord) != i {
			t.Fatalf("ordinal %d for append %d", ord, i)
		}
	}
	tab, err := tb.Build()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != len(users) || tab.HasMultipoint() != multipoint {
		t.Fatalf("Len %d multipoint %v", tab.Len(), tab.HasMultipoint())
	}
	if held := tab.off != nil || tab.length != nil; held != multipoint {
		t.Fatalf("multipoint %v: offset and length columns held %v", multipoint, held)
	}
	total := 0
	for i, u := range users {
		ord := int32(i)
		total += u.Len()
		first, last := tab.Ends(ord)
		if tab.ID(ord) != u.ID || tab.NumPoints(ord) != u.Len() || !slices.Equal(tab.Points(ord), u.Points) ||
			first != u.Source() || last != u.Dest() ||
			math.Float64bits(tab.Length(ord)) != math.Float64bits(u.Length()) {
			t.Fatalf("ordinal %d does not mirror trajectory %d", i, u.ID)
		}
		if &tab.Points(ord)[0] == &u.Points[0] {
			t.Fatalf("ordinal %d aliases the caller's points", i)
		}
		if got, ok := tab.Lookup(u.ID); !ok || got != ord {
			t.Fatalf("Lookup(%d) = %d, %v; want %d", u.ID, got, ok, ord)
		}
		var v Trajectory
		tab.View(ord, &v)
		if v.ID != u.ID || !slices.Equal(v.Points, u.Points) || v.MBR() != u.MBR() ||
			math.Float64bits(v.Length()) != math.Float64bits(u.Length()) {
			t.Fatalf("view of ordinal %d differs from trajectory %d", i, u.ID)
		}
	}
	if tab.TotalPoints() != total {
		t.Fatalf("TotalPoints %d, want %d", tab.TotalPoints(), total)
	}
	// Sparse IDs: every absent one must miss.
	present := map[ID]bool{}
	for _, u := range users {
		present[u.ID] = true
	}
	for id := ID(0); id < ID(4*len(users)+2); id++ {
		if _, ok := tab.Lookup(id); ok != present[id] {
			t.Fatalf("Lookup(%d) found = %v", id, ok)
		}
	}
	// No per-trajectory object, no slack. A two-point trajectory is its
	// ID, two points and a lookup slot; a multipoint table adds an offset
	// and a length a row, and one closing offset.
	want := int64(40 * len(users))
	if multipoint {
		want = int64(16*total + 20*len(users) + 4)
	}
	if tab.Bytes() != want {
		t.Fatalf("Bytes %d, want %d", tab.Bytes(), want)
	}

	sorted := make([]ID, len(users))
	for i, u := range users {
		sorted[i] = u.ID
	}
	slices.Sort(sorted)
	if ids := tab.AppendSortedIDs(nil, nil); !slices.Equal(ids, sorted) {
		t.Fatalf("AppendSortedIDs(nil): %d ids, sorted %v", len(ids), slices.IsSorted(ids))
	}
	// Skip ordinals 0, 7, 63 and 64: the two ends of the first word and
	// the first bit of the second.
	skip := NewOrdinalSet(len(users))
	for _, i := range []int32{0, 7, 63, 64} {
		skip.Add(i)
	}
	if !skip.Has(63) || skip.Has(62) || skip.Has(65) {
		t.Fatalf("OrdinalSet %x", skip)
	}
	ids := tab.AppendSortedIDs(nil, skip)
	wantSkipped := slices.DeleteFunc(slices.Clone(sorted), func(id ID) bool {
		return id == users[0].ID || id == users[7].ID || id == users[63].ID || id == users[64].ID
	})
	if !slices.Equal(ids, wantSkipped) {
		t.Fatalf("AppendSortedIDs: %d ids, sorted %v", len(ids), slices.IsSorted(ids))
	}
}

// TestTableRejectsDuplicateIDs: the sort that builds the lookup
// permutation is also the uniqueness check.
func TestTableRejectsDuplicateIDs(t *testing.T) {
	users := tableTestUsers(50, 2, true)
	tb := NewTableBuilder(len(users)+1, 0)
	for _, u := range users {
		tb.Append(u)
	}
	tb.Append(MustNew(users[31].ID, []geo.Point{geo.Pt(1, 1), geo.Pt(2, 2)}))
	if _, err := tb.Build(); err == nil || !strings.Contains(err.Error(), "duplicate id") {
		t.Fatalf("duplicate id accepted: %v", err)
	}
}

// TestRecordTable: a table assembled from recorded columns (NewTable)
// adopts the IDs and points in place, and the offsets and lengths too on
// a multipoint table, and answers like the built table over the same
// trajectories; a two-point table keeps neither of those two columns, so
// a caller may reuse them. Columns that cannot describe a table — offsets
// that do not start at 0, decrease, step by fewer than 2 or more than
// maxPoints points, or end short of the arena, mismatched column lengths,
// a repeated ID, a length one ulp off its points' on either layout — are
// refused.
func TestRecordTable(t *testing.T) {
	type columns struct {
		ids    []ID
		off    []uint32
		length []float64
		points []geo.Point
	}
	recordedOf := func(users []*Trajectory) func() *columns {
		return func() *columns {
			c := &columns{make([]ID, len(users)), make([]uint32, 1, len(users)+1), make([]float64, len(users)), nil}
			for i, u := range users {
				c.points = append(c.points, u.Points...)
				c.ids[i], c.length[i] = u.ID, u.Length()
				c.off = append(c.off, uint32(len(c.points)))
			}
			return c
		}
	}
	newTable := func(c *columns) (*Table, error) { return NewTable(c.ids, c.off, c.length, c.points) }
	for _, multipoint := range []bool{true, false} {
		users := tableTestUsers(120, 4, multipoint)
		recorded := recordedOf(users)
		c := recorded()
		ids, off, length, points := c.ids, c.off, c.length, c.points
		tab, err := newTable(c)
		if err != nil {
			t.Fatal(err)
		}
		if !multipoint {
			// Held by nobody: scribbling on them changes nothing.
			clear(off)
			clear(length)
		}
		total := 0
		for i, u := range users {
			ord := int32(i)
			total += u.Len()
			if tab.ID(ord) != u.ID || !slices.Equal(tab.Points(ord), u.Points) ||
				math.Float64bits(tab.Length(ord)) != math.Float64bits(u.Length()) {
				t.Fatalf("multipoint %v: row %d does not mirror trajectory %d", multipoint, i, u.ID)
			}
			if &tab.Points(ord)[0] != &points[total-u.Len()] {
				t.Fatalf("multipoint %v: row %d was copied", multipoint, i)
			}
			if got, ok := tab.Lookup(u.ID); !ok || got != ord {
				t.Fatalf("Lookup(%d) = %d, %v", u.ID, got, ok)
			}
		}
		if tab.TotalPoints() != total || tab.HasMultipoint() != multipoint {
			t.Fatalf("TotalPoints %d (want %d), multipoint %v", tab.TotalPoints(), total, tab.HasMultipoint())
		}
		if i, p := tab.Columns(); &i[0] != &ids[0] || &p[0] != &points[0] {
			t.Fatal("Columns are not the columns NewTable adopted")
		}
		if multipoint && (&tab.off[0] != &off[0] || &tab.length[0] != &length[0]) {
			t.Fatal("a multipoint table does not hold the offsets and lengths NewTable adopted")
		}
		if !multipoint && (tab.off != nil || tab.length != nil) {
			t.Fatal("a two-point table holds an offset or length column")
		}

		c = recorded()
		c.length[7] = math.Nextafter(c.length[7], math.Inf(1))
		if _, err := newTable(c); err == nil || !strings.Contains(err.Error(), "row 7") {
			t.Fatalf("multipoint %v: a length one ulp off: NewTable = %v, want an error naming row 7", multipoint, err)
		}
	}

	recorded := recordedOf(tableTestUsers(120, 4, true))
	for _, f := range []struct {
		name, want string
		forge      func(c *columns)
	}{
		{"first offset 2", "start at 2", func(c *columns) { c.off[0] = 2 }},
		{"a decreasing offset", "decrease at row 5", func(c *columns) { c.off[6] = c.off[5] - 1 }},
		{"a step of 1", "has 1 points", func(c *columns) { c.off[4] = c.off[3] + 1 }},
		{"a step past maxPoints", "has 16777217 points", func(c *columns) { c.off[1] = maxPoints + 1 }},
		{"offsets short of the arena", "the arena holds", func(c *columns) { c.points = append(c.points, geo.Point{}) }},
		{"one length too few", "lengths", func(c *columns) { c.length = c.length[1:] }},
		{"a repeated id", "duplicate id", func(c *columns) { c.ids[5] = c.ids[6] }},
		// Steps of maxPoints up to 2^32-maxPoints, then one more that wraps
		// the uint32 offset to 0: every difference is a legal step and the
		// last offset is the arena's end, but the rows lie past it.
		{"offsets that wrap", "decrease at row 255", func(c *columns) {
			*c = columns{make([]ID, 257), make([]uint32, 258), make([]float64, 257), make([]geo.Point, 2)}
			for i := range c.ids {
				c.ids[i] = ID(i)
			}
			for k := 1; k <= 255; k++ {
				c.off[k] = uint32(k) * maxPoints
			}
			c.off[257] = 2
		}},
	} {
		c := recorded()
		f.forge(c)
		if _, err := newTable(c); err == nil || !strings.Contains(err.Error(), f.want) {
			t.Errorf("%s: NewTable = %v, want an error saying %q", f.name, err, f.want)
		}
	}
}

// TestFirstDuplicateAcross: the k-way merge finds an ID two columns
// share wherever it sits, names the later column, and passes disjoint
// (and empty) columns.
func TestFirstDuplicateAcross(t *testing.T) {
	cols := [][]ID{{1, 4, 9, 30}, {}, {2, 5, 31}, {0, 3, 40}, {6}}
	if id, _, dup := FirstDuplicateAcross(cols); dup {
		t.Fatalf("disjoint columns: duplicate %d", id)
	}
	if _, _, dup := FirstDuplicateAcross(nil); dup {
		t.Fatal("no columns: duplicate")
	}
	for _, c := range []struct {
		col  int
		id   ID
		want int
	}{{2, 30, 2}, {3, 1, 3}, {4, 40, 4}, {0, 6, 4}} {
		mut := make([][]ID, len(cols))
		for i := range cols {
			mut[i] = slices.Clone(cols[i])
		}
		mut[c.col] = append(mut[c.col], c.id)
		slices.Sort(mut[c.col])
		id, which, dup := FirstDuplicateAcross(mut)
		if !dup || id != c.id || which != c.want {
			t.Fatalf("id %d added to column %d: got (%d, %d, %v), want column %d", c.id, c.col, id, which, dup, c.want)
		}
	}
	// Randomised agreement with a map.
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(6)
		rcols := make([][]ID, k)
		seen := map[ID]bool{}
		wantDup := false
		for i := range rcols {
			own := map[ID]bool{}
			for j := rng.Intn(20); j > 0; j-- {
				id := ID(rng.Intn(120))
				if own[id] {
					continue
				}
				own[id] = true
				wantDup = wantDup || seen[id]
				rcols[i] = append(rcols[i], id)
			}
			for id := range own {
				seen[id] = true
			}
			slices.Sort(rcols[i])
		}
		if _, _, dup := FirstDuplicateAcross(rcols); dup != wantDup {
			t.Fatalf("trial %d: duplicate %v, want %v (%v)", trial, dup, wantDup, rcols)
		}
	}
}
