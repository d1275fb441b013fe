package trajectory

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"github.com/trajcover/trajcover/internal/geo"
)

// Table is an immutable, pointer-free collection of user trajectories laid
// out in columns: one ID per trajectory, one contiguous point arena, an
// offset column into it, the cached polyline lengths, and a permutation of
// the ordinals sorted by ID for lookup. A trajectory is addressed by its
// ordinal — its dense position 0..Len()-1 in the table — and IDs are
// unique within a table. It is what a frozen index keeps of its corpus:
// about 20 bytes of fixed columns per trajectory beside its points, and
// not one pointer for the garbage collector to follow.
//
// A Table is never mutated after construction and is safe for any number
// of concurrent readers. The slices Points returns alias the arena: treat
// them as read-only, and do not retain them past the table's owner when
// the columns alias a file mapping (NewTable).
type Table struct {
	ids []ID
	// off has Len()+1 entries; ordinal i's points are
	// points[off[i]:off[i+1]].
	off    []uint32
	length []float64
	points []geo.Point
	// byID lists the ordinals in ascending ID order.
	byID       []int32
	multipoint bool
}

// lengthOf is the polyline length of points, summed left to right — the
// one arithmetic every cached length in the library comes from, so
// lengths computed at different times compare bit-equal.
func lengthOf(points []geo.Point) float64 {
	var l float64
	for i := 1; i < len(points); i++ {
		l += points[i-1].Dist(points[i])
	}
	return l
}

// maxPoints bounds the points of one trajectory in a table.
const maxPoints = 1 << 24

// TableBuilder accumulates trajectories into a Table. Ordinals are
// assigned in Append order.
type TableBuilder struct {
	ids    []ID
	off    []uint32
	length []float64
	points []geo.Point
}

// NewTableBuilder returns a builder with room for the given number of
// trajectories and points; both are capacity hints, not limits.
func NewTableBuilder(trajectories, points int) *TableBuilder {
	return &TableBuilder{
		ids:    make([]ID, 0, trajectories),
		off:    make([]uint32, 1, trajectories+1),
		length: make([]float64, 0, trajectories),
		points: make([]geo.Point, 0, points),
	}
}

// Append copies u into the table and returns its ordinal.
func (b *TableBuilder) Append(u *Trajectory) int32 {
	b.points = append(b.points, u.Points...)
	return b.close(u.ID, u.length)
}

func (b *TableBuilder) close(id ID, length float64) int32 {
	ord := int32(len(b.ids))
	b.ids = append(b.ids, id)
	b.length = append(b.length, length)
	// Truncation of an over-long arena is caught in NewTable, once.
	b.off = append(b.off, uint32(len(b.points)))
	return ord
}

// Build finishes the table with NewTable over the builder's columns,
// trimmed to size: a column grown by append carries up to a quarter of
// slack the table would hold for life. The builder must not be used
// afterwards.
func (b *TableBuilder) Build() (*Table, error) {
	return NewTable(trim(b.ids), trim(b.off), trim(b.length), trim(b.points))
}

func trim[T any](s []T) []T {
	if cap(s) == len(s) {
		return s
	}
	return slices.Clone(s)
}

// NewTable assembles a table from its four columns, which it adopts, not
// copies: ids[i], length[i] and points[off[i]:off[i+1]] are row i. The
// offsets must start at 0, rise by 2 to maxPoints points a row and end
// at len(points); the IDs must be unique. Lengths are taken as given —
// CheckLengths compares them with the points.
func NewTable(ids []ID, off []uint32, length []float64, points []geo.Point) (*Table, error) {
	if len(off) != len(ids)+1 || len(length) != len(ids) || len(ids) > math.MaxInt32 {
		return nil, fmt.Errorf("trajectory: table of %d ids, %d offsets, %d lengths", len(ids), len(off), len(length))
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("trajectory: table offsets start at %d", off[0])
	}
	t := &Table{ids: ids, off: off, length: length, points: points}
	for i := range ids {
		if off[i+1] < off[i] {
			return nil, fmt.Errorf("trajectory: table offsets decrease at row %d", i)
		}
		n := off[i+1] - off[i]
		if n < 2 || n > maxPoints {
			return nil, fmt.Errorf("trajectory: row %d (id %d) has %d points", i, ids[i], n)
		}
		t.multipoint = t.multipoint || n > 2
	}
	if uint64(off[len(ids)]) != uint64(len(points)) {
		return nil, fmt.Errorf("trajectory: table offsets end at %d, the arena holds %d points", off[len(ids)], len(points))
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// CheckLengths compares every row's length with the length of its points,
// bit for bit.
func (t *Table) CheckLengths() error {
	for i := range t.ids {
		if l := lengthOf(t.Points(int32(i))); math.Float64bits(l) != math.Float64bits(t.length[i]) {
			return fmt.Errorf("trajectory: row %d (id %d) has cached length %v, its points give %v", i, t.ids[i], t.length[i], l)
		}
	}
	return nil
}

// index builds the sorted-by-ID permutation, rejecting duplicate IDs with
// an adjacent-equal test on the sorted keys.
func (t *Table) index() error {
	keys := make([]uint64, len(t.ids))
	for i, id := range t.ids {
		keys[i] = uint64(id)<<32 | uint64(i)
	}
	slices.Sort(keys)
	t.byID = make([]int32, len(keys))
	for i, k := range keys {
		if i > 0 && k>>32 == keys[i-1]>>32 {
			return fmt.Errorf("trajectory: duplicate id %d", k>>32)
		}
		t.byID[i] = int32(uint32(k))
	}
	return nil
}

// Len returns the number of trajectories.
func (t *Table) Len() int { return len(t.ids) }

// ID returns the ID of the trajectory at ordinal i.
func (t *Table) ID(i int32) ID { return t.ids[i] }

// Points returns the points of the trajectory at ordinal i (read-only).
func (t *Table) Points(i int32) []geo.Point {
	lo, hi := t.off[i], t.off[i+1]
	return t.points[lo:hi:hi]
}

// NumPoints returns the number of points of the trajectory at ordinal i.
func (t *Table) NumPoints(i int32) int { return int(t.off[i+1] - t.off[i]) }

// Length returns the polyline length of the trajectory at ordinal i.
func (t *Table) Length(i int32) float64 { return t.length[i] }

// TotalPoints returns the number of points across the table.
func (t *Table) TotalPoints() int { return len(t.points) }

// Columns returns the four columns NewTable takes (read-only).
func (t *Table) Columns() (ids []ID, off []uint32, length []float64, points []geo.Point) {
	return t.ids, t.off, t.length, t.points
}

// HasMultipoint reports whether any trajectory has more than two points.
func (t *Table) HasMultipoint() bool { return t.multipoint }

// Lookup returns the ordinal of the trajectory with the given id.
func (t *Table) Lookup(id ID) (int32, bool) {
	j := sort.Search(len(t.byID), func(j int) bool { return t.ids[t.byID[j]] >= id })
	if j < len(t.byID) && t.ids[t.byID[j]] == id {
		return t.byID[j], true
	}
	return 0, false
}

// Has reports whether the table holds a trajectory with the given id.
func (t *Table) Has(id ID) bool {
	_, ok := t.Lookup(id)
	return ok
}

// AppendSortedIDs appends the table's IDs to dst in ascending order,
// leaving out the ordinals in skip.
func (t *Table) AppendSortedIDs(dst []ID, skip OrdinalSet) []ID {
	for _, ord := range t.byID {
		if !skip.Has(ord) {
			dst = append(dst, t.ids[ord])
		}
	}
	return dst
}

// OrdinalSet is a set of table ordinals as a bitmap: bit i%64 of word
// i/64 holds ordinal i. The nil set is empty.
type OrdinalSet []uint64

// NewOrdinalSet returns an empty set with room for the ordinals of a
// table of n trajectories.
func NewOrdinalSet(n int) OrdinalSet { return make(OrdinalSet, (n+63)/64) }

// Has reports whether ordinal i is in the set.
func (s OrdinalSet) Has(i int32) bool { return s != nil && s[i>>6]&(1<<(i&63)) != 0 }

// Add puts ordinal i in the set.
func (s OrdinalSet) Add(i int32) { s[i>>6] |= 1 << (i & 63) }

// View fills dst with the trajectory at ordinal i: its points alias the
// arena and its bounding box is recomputed from them (the same arithmetic
// New uses). A rebuild materialises its whole input this way, in one
// slice of views that is garbage once the new table has copied what it
// needs.
func (t *Table) View(i int32, dst *Trajectory) {
	pts := t.Points(i)
	*dst = Trajectory{ID: t.ids[i], Points: pts, length: t.Length(i), mbr: geo.RectOf(pts)}
}

// Bytes returns the size of the table's columns and arena, from their
// lengths, wherever they live.
func (t *Table) Bytes() int64 {
	return 4*int64(len(t.ids)) + 4*int64(len(t.off)) + 16*int64(len(t.points)) +
		8*int64(len(t.length)) + 4*int64(len(t.byID))
}

// FirstDuplicateAcross reports an ID present in more than one of the
// given columns, each sorted ascending and duplicate-free in itself —
// the cross-shard half of the uniqueness check, a k-way merge that needs
// no corpus-sized map. which is the index of the later column holding it.
func FirstDuplicateAcross(cols [][]ID) (id ID, which int, found bool) {
	// h is a min-heap of column indices keyed by each column's head.
	pos := make([]int, len(cols))
	h := make([]int, 0, len(cols))
	less := func(a, b int) bool {
		x, y := cols[a][pos[a]], cols[b][pos[b]]
		return x < y || (x == y && a < b)
	}
	down := func(i int) {
		for {
			m := i
			if l := 2*i + 1; l < len(h) && less(h[l], h[m]) {
				m = l
			}
			if r := 2*i + 2; r < len(h) && less(h[r], h[m]) {
				m = r
			}
			if m == i {
				return
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
	}
	for c := range cols {
		if len(cols[c]) > 0 {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	havePrev := false
	var prev ID
	for len(h) > 0 {
		c := h[0]
		cur := cols[c][pos[c]]
		if havePrev && cur == prev {
			return cur, c, true
		}
		prev, havePrev = cur, true
		pos[c]++
		if pos[c] == len(cols[c]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return 0, 0, false
}
