package trajectory

import (
	"slices"

	"github.com/trajcover/trajcover/internal/geo"
)

// arenaChunk is the size, in points, of the arena chunks a Corpus cuts
// when it does not know its points in advance: 1 MiB.
const arenaChunk = 1 << 16

// Corpus lays a corpus of trajectories out in a fixed number of
// allocations, however many trajectories it holds: the Trajectory
// headers sit in one slab, their points in one arena — grown in chunks of
// at least 2^16 points when the total is not known in advance — and each
// Points slice is capped at its own length, so an append to one
// trajectory's points never writes into the next one's. It is the one
// layout of every corpus the library generates or reads: the generators
// and ReadCSV. (A rebuild's logical corpus and a restored write overlay
// hold no points of their own: they are one slab of Table.View headers
// over rows a table has already checked.)
//
// The trajectories of one corpus share its arrays: holding any one of
// them keeps the whole header slab and its arena chunk reachable.
type Corpus struct {
	heads  []Trajectory
	n      int // trajectories expected, 0 if unknown
	points int // points expected in all, 0 if unknown

	chunk []geo.Point // the current arena chunk; chunk[:used] is taken
	used  int
	first int // header index of the first trajectory in chunk
}

// NewCorpus returns an empty layout for n trajectories holding points
// points in all; either may be 0 when not known. With the points known,
// the arena is one allocation of exactly that many.
func NewCorpus(n, points int) *Corpus {
	return &Corpus{heads: make([]Trajectory, 0, max(n, 0)), n: n, points: points}
}

// Points returns the arena's next k points, for the caller to fill and
// hand to Add as the next trajectory's points. A chunk that cannot take
// them keeps its tail unused, and a new one is cut: the first holds all
// the points expected when they are known, any other 2^16; none fewer
// than k. A slab of unknown size grows with the arena, to hold a header
// for every two points of the new chunk, so Add does not grow it.
func (c *Corpus) Points(k int) []geo.Point {
	if c.used+k > len(c.chunk) {
		size := arenaChunk
		if c.chunk == nil && c.points > 0 {
			size = c.points
		}
		size = max(size, k)
		c.chunk, c.used, c.first = make([]geo.Point, size), 0, len(c.heads)
		if room := len(c.heads) + size/2; c.n == 0 && room > cap(c.heads) {
			c.heads = slices.Grow(c.heads, max(room, 2*cap(c.heads))-len(c.heads))
		}
	}
	p := c.chunk[c.used : c.used+k : c.used+k]
	c.used += k
	return p
}

// Add appends the trajectory id after New's checks; points must be the
// slice Points last returned. A trajectory that fails the checks is not
// added, and the arena takes its points back.
func (c *Corpus) Add(id ID, points []geo.Point) error {
	k := len(points)
	if c.used < k || k > 0 && &points[0] != &c.chunk[c.used-k] {
		panic("trajectory: Corpus.Add given points Points did not just return")
	}
	t := Trajectory{ID: id, Points: points}
	if err := t.Validate(); err != nil {
		c.used -= k
		return err
	}
	c.heads = append(c.heads, t)
	return nil
}

// Trajectories finishes the layout and returns the corpus in the order
// it was added, as one slice of pointers into the header slab. A slab
// that grew is copied to its exact size, and so is the taken part of an
// arena chunk whose tail went unused, so the corpus keeps no slack. The
// Corpus is empty afterwards.
func (c *Corpus) Trajectories() []*Trajectory {
	heads := c.heads
	if len(heads) < cap(heads) {
		heads = make([]Trajectory, len(c.heads))
		copy(heads, c.heads)
	}
	if 0 < c.used && c.used < len(c.chunk) {
		pts := make([]geo.Point, c.used)
		copy(pts, c.chunk)
		off := 0
		for i := c.first; i < len(heads); i++ {
			k := len(heads[i].Points)
			heads[i].Points = pts[off : off+k : off+k]
			off += k
		}
	}
	out := make([]*Trajectory, len(heads))
	for i := range heads {
		out[i] = &heads[i]
	}
	*c = Corpus{}
	return out
}
