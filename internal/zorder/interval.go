package zorder

import (
	"github.com/trajcover/trajcover/internal/geo"
)

// Interval is a closed range [Lo, Hi] of Morton point codes.
type Interval struct {
	Lo, Hi uint64
}

// CoverIntervalsAuto returns sorted, disjoint Morton-code intervals that
// together contain the code of every point of bounds∩rect. A rectangle
// that straddles a major split line of the space has an enormous single
// [min-corner, max-corner] code range (the Z-curve jumps); decomposing it
// into per-quadrant intervals lets a z-ordered scan skip the gaps.
//
// The walk descends to one depth chosen from the rect/bounds size ratio
// (cells about half the rect's larger side), which keeps both the walk
// and the interval count small. Budget overruns coarsen into the
// previous interval (still a sound superset). dst is reused when its
// capacity allows.
//
// The cells are PointCode's grid cells, not float quadrants: rect's
// corners map onto the grid exactly as any point does, and since that map
// is monotone the integer range they span holds the cell of every point
// in rect, so the cover is sound on any bounds.
func CoverIntervalsAuto(bounds, rect geo.Rect, maxIntervals int, dst []Interval) []Interval {
	dst = dst[:0]
	if !bounds.Intersects(rect) {
		return dst
	}
	if maxIntervals < 1 {
		maxIntervals = 1
	}
	size := rect.Width()
	if rect.Height() > size {
		size = rect.Height()
	}
	span := bounds.Width()
	if bounds.Height() > span {
		span = bounds.Height()
	}
	depth := 0
	for d := 0; d < 12; d++ {
		if span <= size {
			break
		}
		span /= 2
		depth = d + 2 // cells ≈ half the rect's larger side
	}
	x0, y0 := gridCell(bounds, geo.Point{X: rect.MinX, Y: rect.MinY})
	x1, y1 := gridCell(bounds, geo.Point{X: rect.MaxX, Y: rect.MaxY})
	c := coverer{x0: x0, y0: y0, x1: x1, y1: y1, out: dst, maxIntervals: maxIntervals}
	c.cover(0, 0, 1<<MaxDepth, depth)
	return c.out
}

// coverer walks the implicit quadtree of PointCode's grid against the
// grid rectangle [x0, x1] × [y0, y1].
type coverer struct {
	x0, y0, x1, y1 uint32
	out            []Interval
	maxIntervals   int
}

// cover visits the size × size cell whose lowest column and row are x, y,
// down to the given depth.
func (c *coverer) cover(x, y, size uint32, depth int) {
	xe, ye := x+size-1, y+size-1
	if xe < c.x0 || x > c.x1 || ye < c.y0 || y > c.y1 {
		return
	}
	inside := c.x0 <= x && xe <= c.x1 && c.y0 <= y && ye <= c.y1
	if depth == 0 || size == 1 || inside {
		lo := Encode(x, y)
		c.emit(lo, lo+uint64(size)*uint64(size)-1)
		return
	}
	h := size / 2
	c.cover(x, y, h, depth-1)
	c.cover(x+h, y, h, depth-1)
	c.cover(x, y+h, h, depth-1)
	c.cover(x+h, y+h, h, depth-1)
}

// emit appends [lo, hi], merging with the previous interval when they
// touch.
func (c *coverer) emit(lo, hi uint64) {
	n := len(c.out)
	merge := n > 0 && (lo == 0 || c.out[n-1].Hi >= lo-1)
	if !merge && n >= c.maxIntervals {
		// Budget spent: coarsen into the previous interval (covers the
		// gap too — still a superset, so still sound).
		merge = n > 0
	}
	if merge {
		if hi > c.out[n-1].Hi {
			c.out[n-1].Hi = hi
		}
		return
	}
	c.out = append(c.out, Interval{Lo: lo, Hi: hi})
}
