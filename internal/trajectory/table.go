package trajectory

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"github.com/trajcover/trajcover/internal/geo"
)

// Table is an immutable, pointer-free collection of user trajectories laid
// out in columns: one ID per trajectory and one contiguous point arena. A
// trajectory is addressed by its ordinal — its dense position
// 0..Len()-1 in the table — and IDs are unique within a table. It is what
// a frozen index keeps of its corpus, and not one pointer for the garbage
// collector to follow.
//
// A table in which no trajectory has more than two points — the paper's
// source–destination users — holds nothing else: row i is points[2i:2i+2]
// and its length is the distance between them, so it costs 36 bytes a
// trajectory (ID, two points). A multipoint table adds an offset column
// into the arena and the cached polyline lengths, 12 bytes more a
// trajectory, so that a length is not re-summed per segment. Only a write
// looks a trajectory up by ID: the first Lookup builds a permutation of
// the ordinals sorted by ID, 4 bytes more a trajectory from then on, and
// a table that is only read never holds one.
//
// A Table's rows are never mutated after construction and it is safe for
// any number of concurrent readers. The slices Points returns alias the
// arena: treat them as read-only, and do not retain them past the table's
// owner when the columns alias a file mapping (NewTable).
type Table struct {
	ids []ID
	// off and length are held on a multipoint table only: off has Len()+1
	// entries and ordinal i's points are points[off[i]:off[i+1]]. Without
	// a multipoint row NewTable has proved off[i] == 2i, and a length is
	// derived from the row's two points.
	off    []uint32
	length []float64
	points []geo.Point
	// byID lists the ordinals in ascending ID order once the first Lookup
	// has built it, and is nil until then.
	byID       atomic.Pointer[[]int32]
	multipoint bool
}

// lengthOf is the polyline length of points, summed left to right — the
// one arithmetic every length in the library comes from (Trajectory.Length,
// a table's length column, the two-point Table.Length), so lengths
// computed at different times compare bit-equal.
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

// Append copies u into the table, with its length, and returns its
// ordinal.
func (b *TableBuilder) Append(u *Trajectory) int32 {
	ord := int32(len(b.ids))
	b.points = append(b.points, u.Points...)
	b.ids = append(b.ids, u.ID)
	b.length = append(b.length, lengthOf(u.Points))
	// Truncation of an over-long arena is caught in NewTable, once.
	b.off = append(b.off, uint32(len(b.points)))
	return ord
}

// AppendPair copies the two-point trajectory id, p → q, into the table,
// with its length, and returns its ordinal: Append without a Trajectory
// to read.
func (b *TableBuilder) AppendPair(id ID, p, q geo.Point) int32 {
	ord := int32(len(b.ids))
	pair := [2]geo.Point{p, q}
	b.points = append(b.points, pair[:]...)
	b.ids = append(b.ids, id)
	b.length = append(b.length, lengthOf(pair[:]))
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

// NewTable assembles a table from its four columns: ids[i], length[i] and
// points[off[i]:off[i+1]] are row i. The offsets must start at 0, rise by
// 2 to maxPoints points a row and end at len(points); the IDs must be
// unique; and every length must be its points' (lengthOf), bit for bit,
// and finite (ErrNotFinite): a NaN or infinite coordinate makes the sum
// NaN or infinite, so no row holds one.
// It adopts ids and points, not copies. It adopts off and length only if
// some row has more than two points: otherwise both are derived from the
// points and neither is kept, so a caller may pass views it reuses.
func NewTable(ids []ID, off []uint32, length []float64, points []geo.Point) (*Table, error) {
	if len(off) != len(ids)+1 || len(length) != len(ids) || len(ids) > math.MaxInt32 {
		return nil, fmt.Errorf("trajectory: table of %d ids, %d offsets, %d lengths", len(ids), len(off), len(length))
	}
	if off[0] != 0 {
		return nil, fmt.Errorf("trajectory: table offsets start at %d", off[0])
	}
	multipoint := false
	for i := range ids {
		if off[i+1] < off[i] {
			return nil, fmt.Errorf("trajectory: table offsets decrease at row %d", i)
		}
		n := off[i+1] - off[i]
		if n < 2 || n > maxPoints {
			return nil, fmt.Errorf("trajectory: row %d (id %d) has %d points", i, ids[i], n)
		}
		multipoint = multipoint || n > 2
	}
	if uint64(off[len(ids)]) != uint64(len(points)) {
		return nil, fmt.Errorf("trajectory: table offsets end at %d, the arena holds %d points", off[len(ids)], len(points))
	}
	for i := range ids {
		pts := points[off[i]:off[i+1]]
		l := lengthOf(pts)
		if math.Float64bits(l) != math.Float64bits(length[i]) {
			return nil, fmt.Errorf("trajectory: row %d (id %d) has recorded length %v, its points give %v", i, ids[i], length[i], l)
		}
		if !finite(l) {
			return nil, fmt.Errorf("trajectory: row %d: %w", i, notFinite(ids[i], pts))
		}
	}
	keys := sortedKeys(ids)
	for i := 1; i < len(keys); i++ {
		if keys[i]>>32 == keys[i-1]>>32 {
			return nil, fmt.Errorf("trajectory: duplicate id %d", keys[i]>>32)
		}
	}
	t := &Table{ids: ids, points: points, multipoint: multipoint}
	if multipoint {
		t.off, t.length = off, length
	}
	return t, nil
}

// sortedKeys returns id<<32 | ordinal for every row of ids, in ascending
// order: a stable LSD radix sort on the ID's four bytes over keys in
// ordinal order, so rows sharing an ID stay in ordinal order — what
// slices.Sort of the keys gives — in four linear passes, fewer when every
// ID shares a byte. The three orders by ID (the uniqueness check, the
// lookup permutation, AppendSortedIDs) all come from here.
func sortedKeys(ids []ID) []uint64 {
	keys := make([]uint64, len(ids))
	var count [4][256]int
	for i, id := range ids {
		keys[i] = uint64(id)<<32 | uint64(i)
		count[0][uint8(id)]++
		count[1][uint8(id>>8)]++
		count[2][uint8(id>>16)]++
		count[3][uint8(id>>24)]++
	}
	var tmp []uint64
	for b := range count {
		c, shift := &count[b], 32+8*b
		if len(keys) == 0 || c[uint8(keys[0]>>shift)] == len(keys) {
			continue
		}
		if tmp == nil {
			tmp = make([]uint64, len(keys))
		}
		sum := 0
		for d, n := range c {
			c[d], sum = sum, sum+n
		}
		for _, k := range keys {
			d := uint8(k >> shift)
			tmp[c[d]] = k
			c[d]++
		}
		keys, tmp = tmp, keys
	}
	return keys
}

// Len returns the number of trajectories.
func (t *Table) Len() int { return len(t.ids) }

// ID returns the ID of the trajectory at ordinal i.
func (t *Table) ID(i int32) ID { return t.ids[i] }

// span returns the arena bounds of the trajectory at ordinal i: 2i and
// 2i+2 without a multipoint row, the offsets otherwise.
func (t *Table) span(i int32) (lo, hi int) {
	if !t.multipoint {
		return 2 * int(i), 2*int(i) + 2
	}
	return int(t.off[i]), int(t.off[i+1])
}

// Points returns the points of the trajectory at ordinal i (read-only).
func (t *Table) Points(i int32) []geo.Point {
	lo, hi := t.span(i)
	return t.points[lo:hi:hi]
}

// Ends returns the first and last point of the trajectory at ordinal i.
func (t *Table) Ends(i int32) (first, last geo.Point) {
	lo, hi := t.span(i)
	return t.points[lo], t.points[hi-1]
}

// NumPoints returns the number of points of the trajectory at ordinal i.
func (t *Table) NumPoints(i int32) int {
	lo, hi := t.span(i)
	return hi - lo
}

// Length returns the polyline length of the trajectory at ordinal i. A
// two-point row's is the distance between its points, computed here:
// lengthOf gives the same bits, 0 + d being d.
func (t *Table) Length(i int32) float64 {
	if !t.multipoint {
		return t.points[2*int(i)].Dist(t.points[2*int(i)+1])
	}
	return t.length[i]
}

// TotalPoints returns the number of points across the table.
func (t *Table) TotalPoints() int { return len(t.points) }

// Columns returns the two columns every table holds, the IDs and the
// point arena (read-only).
func (t *Table) Columns() (ids []ID, points []geo.Point) { return t.ids, t.points }

// HasMultipoint reports whether any trajectory has more than two points.
func (t *Table) HasMultipoint() bool { return t.multipoint }

// Lookup returns the ordinal of the trajectory with the given id. The
// first call builds the table's by-ID permutation, in one sort; a call
// racing it may build one too, and the first to finish is kept.
func (t *Table) Lookup(id ID) (int32, bool) {
	byID := t.lookupIndex()
	j := sort.Search(len(byID), func(j int) bool { return t.ids[byID[j]] >= id })
	if j < len(byID) && t.ids[byID[j]] == id {
		return byID[j], true
	}
	return 0, false
}

// BuildLookup builds the by-ID permutation Lookup reads, if no call has:
// a caller about to look IDs up under a lock builds it first, outside.
func (t *Table) BuildLookup() { t.lookupIndex() }

// lookupIndex returns the by-ID permutation, building it on first use.
func (t *Table) lookupIndex() []int32 {
	if p := t.byID.Load(); p != nil {
		return *p
	}
	keys := sortedKeys(t.ids)
	byID := make([]int32, len(keys))
	for i, k := range keys {
		byID[i] = int32(uint32(k))
	}
	t.byID.CompareAndSwap(nil, &byID)
	return *t.byID.Load()
}

// AppendSortedIDs appends the table's IDs to dst in ascending order,
// leaving out the ordinals in skip. It sorts a transient copy and leaves
// the lookup permutation unbuilt.
func (t *Table) AppendSortedIDs(dst []ID, skip OrdinalSet) []ID {
	for _, k := range sortedKeys(t.ids) {
		if !skip.Has(int32(uint32(k))) {
			dst = append(dst, ID(k>>32))
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

// View fills dst with the trajectory at ordinal i, its ID and its points,
// which alias the arena; its Length and MBR compute from them as any
// trajectory's do. A rebuild materialises its whole input this way, in
// one slice of 32-byte views that is garbage once the new table has
// copied what it needs.
func (t *Table) View(i int32, dst *Trajectory) {
	*dst = Trajectory{ID: t.ids[i], Points: t.Points(i)}
}

// Bytes returns the size of the columns and arena the table holds, from
// their lengths, wherever they live: 36 bytes a trajectory without a
// multipoint row; with one, 16 bytes a trajectory beside 16 a point, and
// the closing offset; and 4 bytes a trajectory more once a Lookup has
// built the by-ID permutation. It is safe concurrently with Lookup.
func (t *Table) Bytes() int64 {
	n := 4*int64(len(t.ids)) + 4*int64(len(t.off)) + 16*int64(len(t.points)) + 8*int64(len(t.length))
	if p := t.byID.Load(); p != nil {
		n += 4 * int64(len(*p))
	}
	return n
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
