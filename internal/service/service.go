// Package service implements the paper's service-value semantics: how much
// a facility trajectory (or a set of them) "serves" a user trajectory.
//
// Three scenarios are supported (Section II of the paper):
//
//   - Binary: S(u,f) = 1 iff both the source and the destination of u are
//     within ψ of some stop of f (Scenario 1, e.g. commuter pickup and
//     drop-off).
//   - PointCount: S(u,f) = scount(u,f)/|u|, the fraction of u's points
//     within ψ of f's stops (Scenario 2, e.g. POIs a tourist can visit).
//   - Length: S(u,f) = slength(u,f)/length(u), the fraction of u's length
//     served; a segment is served when both of its endpoints are within ψ
//     of stops (Scenario 3, e.g. ad-display duration).
//
// For MaxkCovRST the package also implements the combined AGG semantics:
// a user's points may be covered by different facilities of a set F', and
// coverage is unioned per point (Mask) before the scenario formula is
// applied — exactly the semantics under which the paper proves
// non-submodularity (a source served by f1 and a destination served by f2
// counts). A facility batch's coverage is one CoverTable: each covered
// user once, as a dense slot, and per facility the (slot, Mask) rows a
// solver unions.
package service

import (
	"fmt"
	"math/bits"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Scenario selects the service-value semantics.
type Scenario int

const (
	// Binary is Scenario 1: served iff source and destination are both
	// within ψ of the facility's stops.
	Binary Scenario = iota
	// PointCount is Scenario 2: fraction of points within ψ.
	PointCount
	// Length is Scenario 3: fraction of trajectory length on segments
	// whose endpoints are both within ψ.
	Length

	// NumScenarios is the number of scenarios, for sizing arrays.
	NumScenarios = 3
)

// String implements fmt.Stringer.
func (s Scenario) String() string {
	switch s {
	case Binary:
		return "binary"
	case PointCount:
		return "pointcount"
	case Length:
		return "length"
	}
	return fmt.Sprintf("Scenario(%d)", int(s))
}

// Valid reports whether s is a defined scenario.
func (s Scenario) Valid() bool { return s >= Binary && s <= Length }

// PointServed reports whether p is within psi of any of the stops.
// This is the dist(p, f) <= ψ predicate of the paper.
func PointServed(p geo.Point, stops []geo.Point, psi float64) bool {
	psi2 := psi * psi
	for _, s := range stops {
		if p.Dist2(s) <= psi2 {
			return true
		}
	}
	return false
}

// Value computes S(u, f) for a single facility given its stop points,
// by direct scan. It is the reference ("oracle") implementation every
// index-accelerated path is tested against, and the building block the
// node-level evaluators use on pruned candidate sets.
func Value(sc Scenario, u *trajectory.Trajectory, stops []geo.Point, psi float64) float64 {
	switch sc {
	case Binary:
		if PointServed(u.Source(), stops, psi) && PointServed(u.Dest(), stops, psi) {
			return 1
		}
		return 0
	case PointCount:
		served := 0
		for _, p := range u.Points {
			if PointServed(p, stops, psi) {
				served++
			}
		}
		return float64(served) / float64(u.Len())
	case Length:
		// total is summed left to right in the loop, so it has the bits
		// of u.Length() without a second pass over the points.
		var sl, total float64
		prev := PointServed(u.Points[0], stops, psi)
		for i := 1; i < u.Len(); i++ {
			d := u.SegmentLength(i - 1)
			total += d
			cur := PointServed(u.Points[i], stops, psi)
			if prev && cur {
				sl += d
			}
			prev = cur
		}
		if total == 0 {
			return 0
		}
		return sl / total
	}
	panic(fmt.Sprintf("service: invalid scenario %d", sc))
}

// Mask is a per-point coverage bitmap for one user trajectory: bit i is
// set when point i is within ψ of some stop of the facility (or facility
// set) under consideration.
type Mask []uint64

// NewMask returns an all-zero mask sized for n points.
func NewMask(n int) Mask { return make(Mask, (n+63)/64) }

// Set marks point i covered.
func (m Mask) Set(i int) { m[i/64] |= 1 << (uint(i) % 64) }

// Get reports whether point i is covered.
func (m Mask) Get(i int) bool { return m[i/64]>>(uint(i)%64)&1 == 1 }

// Or unions other into m. The masks must be the same size.
func (m Mask) Or(other Mask) {
	for i, w := range other {
		m[i] |= w
	}
}

// Count returns the number of covered points.
func (m Mask) Count() int {
	n := 0
	for _, w := range m {
		n += bits.OnesCount64(w)
	}
	return n
}

// MaskOf computes the coverage mask of u against the given stops.
func MaskOf(u *trajectory.Trajectory, stops []geo.Point, psi float64) Mask {
	m := NewMask(u.Len())
	for i, p := range u.Points {
		if PointServed(p, stops, psi) {
			m.Set(i)
		}
	}
	return m
}

// ValueFromMask applies the scenario formula to a coverage mask. For a
// single facility, ValueFromMask(sc, u, MaskOf(u, stops, ψ)) equals
// Value(sc, u, stops, ψ); for a facility set it implements the combined
// AGG semantics over the unioned mask.
func ValueFromMask(sc Scenario, u *trajectory.Trajectory, m Mask) float64 {
	switch sc {
	case Binary:
		if m.Get(0) && m.Get(u.Len()-1) {
			return 1
		}
		return 0
	case PointCount:
		return float64(m.Count()) / float64(u.Len())
	case Length:
		// total has the bits of u.Length(), summed in the same order.
		var sl, total float64
		for i := 0; i < u.NumSegments(); i++ {
			d := u.SegmentLength(i)
			total += d
			if m.Get(i) && m.Get(i+1) {
				sl += d
			}
		}
		if total == 0 {
			return 0
		}
		return sl / total
	}
	panic(fmt.Sprintf("service: invalid scenario %d", sc))
}

// CoverTable is the coverage of a facility batch: the user × facility
// incidence that MaxkCovRST's solvers and ServedUsers read. Each covered
// user holds one slot, its index in Users, and facility i's rows name each
// slot it covers once, with the points of that user it covers.
type CoverTable struct {
	// Users holds every covered user once, in the order a walk first
	// reached it.
	Users []*trajectory.Trajectory
	off   []int32 // facility i's rows are rows[off[i]:off[i+1]]
	rows  []CoverRow
}

// CoverRow is one (user, facility) pair of a CoverTable: the user's slot
// and the points of it the facility covers.
type CoverRow struct {
	Slot int32
	Mask Mask
}

// Len returns the number of facilities.
func (t *CoverTable) Len() int { return len(t.off) - 1 }

// Rows returns facility i's rows, in the order the walk reached them.
func (t *CoverTable) Rows(i int) []CoverRow { return t.rows[t.off[i]:t.off[i+1]] }

// ConcatCover joins tables of one facility batch over disjoint users, in
// order: facility i's rows are every table's rows of i, their slots offset
// past the users of the tables before it.
func ConcatCover(ts []*CoverTable) *CoverTable {
	if len(ts) == 1 {
		return ts[0]
	}
	out := &CoverTable{off: []int32{0}}
	for i := 0; i < ts[0].Len(); i++ {
		var base int32
		for _, t := range ts {
			for _, r := range t.Rows(i) {
				out.rows = append(out.rows, CoverRow{Slot: base + r.Slot, Mask: r.Mask})
			}
			base += int32(len(t.Users))
		}
		out.off = append(out.off, int32(len(out.rows)))
	}
	for _, t := range ts {
		out.Users = append(out.Users, t.Users...)
	}
	return out
}

// CoverBuilder assembles a CoverTable one facility at a time from a walk
// that names users by a dense ordinal in [0, n). Its ordinal → slot array
// is allocated once, so the walk needs no map, and a user that several
// entries of one facility reach ORs into one row.
type CoverBuilder struct {
	slot  []int32 // ordinal → slot+1; 0 until the walk first reaches it
	ords  []int32 // slot → ordinal
	last  []int32 // slot → its latest row
	start int32   // the current facility's first row
	off   []int32
	rows  []int32 // row → slot
	word  []int32 // row → its mask's first word in words
	words []uint64
}

// NewCoverBuilder returns a builder for users named by ordinals in [0, n).
func NewCoverBuilder(n int) *CoverBuilder {
	return &CoverBuilder{slot: make([]int32, n), off: []int32{0}}
}

// Mask returns the current facility's mask of the user at ordinal ord, a
// user of n points, adding the row (and the user's slot) on first touch.
// It is valid until the next call.
func (b *CoverBuilder) Mask(ord int32, n int) Mask {
	s := b.slot[ord] - 1
	if s < 0 {
		s = int32(len(b.ords))
		b.slot[ord] = s + 1
		b.ords = append(b.ords, ord)
		b.last = append(b.last, -1)
	}
	w := (n + 63) / 64
	r := b.last[s]
	if r < b.start {
		r = int32(len(b.rows))
		b.last[s] = r
		b.rows = append(b.rows, s)
		b.word = append(b.word, int32(len(b.words)))
		b.words = append(b.words, make([]uint64, w)...)
	}
	return b.words[b.word[r] : int(b.word[r])+w]
}

// Next closes the current facility's rows; the next Mask starts the next
// facility's.
func (b *CoverBuilder) Next() {
	b.start = int32(len(b.rows))
	b.off = append(b.off, b.start)
}

// Ordinals returns each slot's ordinal, in slot order.
func (b *CoverBuilder) Ordinals() []int32 { return b.ords }

// Build returns the table, given the user of each slot (see Ordinals). Its
// masks are carved from one word arena.
func (b *CoverBuilder) Build(users []*trajectory.Trajectory) *CoverTable {
	t := &CoverTable{Users: users, off: b.off, rows: make([]CoverRow, len(b.rows))}
	for r, s := range b.rows {
		hi := len(b.words)
		if r+1 < len(b.word) {
			hi = int(b.word[r+1])
		}
		t.rows[r] = CoverRow{Slot: s, Mask: b.words[b.word[r]:hi:hi]}
	}
	return t
}
