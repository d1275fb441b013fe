// Package geo provides the planar geometry substrate used throughout the
// library: points, axis-aligned rectangles, distance computations, and the
// quadrant arithmetic the quadtree-based indexes are built on.
//
// All coordinates are planar (e.g. meters after an equirectangular
// projection).
package geo

import (
	"fmt"
	"math"
)

// Point is a location in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for constructing a Point.
func Pt(x, y float64) Point { return Point{X: x, Y: y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root and is the preferred primitive for threshold comparisons.
func (p Point) Dist2(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{X: p.X + dx, Y: p.Y + dy} }

// String implements fmt.Stringer.
func (p Point) String() string { return fmt.Sprintf("(%.4f,%.4f)", p.X, p.Y) }

// Rect is a closed axis-aligned rectangle [MinX,MaxX] × [MinY,MaxY].
// The zero Rect is the degenerate rectangle at the origin.
type Rect struct {
	MinX, MinY, MaxX, MaxY float64
}

// NewRect returns the rectangle spanning the two corner points in any order.
func NewRect(a, b Point) Rect {
	return Rect{
		MinX: math.Min(a.X, b.X),
		MinY: math.Min(a.Y, b.Y),
		MaxX: math.Max(a.X, b.X),
		MaxY: math.Max(a.Y, b.Y),
	}
}

// RectOf returns the minimum bounding rectangle of pts. It panics if pts is
// empty, because an empty MBR has no meaningful value.
func RectOf(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geo: RectOf of empty point set")
	}
	r := Rect{MinX: pts[0].X, MinY: pts[0].Y, MaxX: pts[0].X, MaxY: pts[0].Y}
	for _, p := range pts[1:] {
		r = r.ExtendPoint(p)
	}
	return r
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.MaxX - r.MinX }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.MaxY - r.MinY }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.MinX && p.X <= r.MaxX && p.Y >= r.MinY && p.Y <= r.MaxY
}

// ContainsRect reports whether s lies entirely inside r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.MinX >= r.MinX && s.MaxX <= r.MaxX && s.MinY >= r.MinY && s.MaxY <= r.MaxY
}

// Intersects reports whether r and s share any point (boundary inclusive).
func (r Rect) Intersects(s Rect) bool {
	return r.MinX <= s.MaxX && s.MinX <= r.MaxX && r.MinY <= s.MaxY && s.MinY <= r.MaxY
}

// Expand returns r grown by a little more than d on every side. This is
// the EMBR ("extended MBR") operation from the paper: the serving area of
// a facility is its stop-point MBR expanded by the distance threshold ψ.
//
// Every caller means ψ-reach, and Expand keeps that invariant: Expand(ψ)
// contains every point p with p.Dist2(s) <= ψ*ψ for some s in r. Dist2
// rounds, so it accepts points a few ulps beyond ψ, and the corners here
// round too; the pad, 2^-40 of the larger of d and r's largest coordinate
// magnitude, covers both, and its 2^-500 floor covers squares that
// underflow. The rectangle is only ever a prefilter: what it passes is
// scored exactly.
func (r Rect) Expand(d float64) Rect {
	m := max(d, math.Abs(r.MinX), math.Abs(r.MinY), math.Abs(r.MaxX), math.Abs(r.MaxY))
	d += m*0x1p-40 + 0x1p-500
	return Rect{MinX: r.MinX - d, MinY: r.MinY - d, MaxX: r.MaxX + d, MaxY: r.MaxY + d}
}

// ExtendPoint returns the smallest rectangle covering both r and p.
func (r Rect) ExtendPoint(p Point) Rect {
	if p.X < r.MinX {
		r.MinX = p.X
	}
	if p.X > r.MaxX {
		r.MaxX = p.X
	}
	if p.Y < r.MinY {
		r.MinY = p.Y
	}
	if p.Y > r.MaxY {
		r.MaxY = p.Y
	}
	return r
}

// ExtendRect returns the smallest rectangle covering both r and s.
func (r Rect) ExtendRect(s Rect) Rect {
	if s.MinX < r.MinX {
		r.MinX = s.MinX
	}
	if s.MaxX > r.MaxX {
		r.MaxX = s.MaxX
	}
	if s.MinY < r.MinY {
		r.MinY = s.MinY
	}
	if s.MaxY > r.MaxY {
		r.MaxY = s.MaxY
	}
	return r
}

// Quadrant indexes follow the Z-curve visit order so that z-id digits and
// quadrant numbers agree everywhere in the library:
//
//	2 | 3        (NW=2, NE=3)
//	--+--
//	0 | 1        (SW=0, SE=1)
const (
	QuadSW = 0
	QuadSE = 1
	QuadNW = 2
	QuadNE = 3
)

// Quadrant returns the q-th quadrant of r (q in 0..3, see QuadSW..QuadNE).
func (r Rect) Quadrant(q int) Rect {
	cx := (r.MinX + r.MaxX) / 2
	cy := (r.MinY + r.MaxY) / 2
	switch q {
	case QuadSW:
		return Rect{MinX: r.MinX, MinY: r.MinY, MaxX: cx, MaxY: cy}
	case QuadSE:
		return Rect{MinX: cx, MinY: r.MinY, MaxX: r.MaxX, MaxY: cy}
	case QuadNW:
		return Rect{MinX: r.MinX, MinY: cy, MaxX: cx, MaxY: r.MaxY}
	case QuadNE:
		return Rect{MinX: cx, MinY: cy, MaxX: r.MaxX, MaxY: r.MaxY}
	}
	panic(fmt.Sprintf("geo: quadrant index %d out of range", q))
}

// QuadrantOf returns which quadrant of r the point p falls in. Points on
// the center lines are assigned to the higher quadrant, matching the
// half-open partitioning the quadtree indexes use so every point belongs to
// exactly one quadrant.
func (r Rect) QuadrantOf(p Point) int {
	cx := (r.MinX + r.MaxX) / 2
	cy := (r.MinY + r.MaxY) / 2
	q := 0
	if p.X >= cx {
		q |= 1
	}
	if p.Y >= cy {
		q |= 2
	}
	return q
}

// Dist2ToPoint returns the squared minimum distance from p to r.
func (r Rect) Dist2ToPoint(p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return dx*dx + dy*dy
}

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%.4f,%.4f]x[%.4f,%.4f]", r.MinX, r.MaxX, r.MinY, r.MaxY)
}

// DistPointSegment returns the minimum distance from p to the segment ab.
func DistPointSegment(p, a, b Point) float64 {
	abx := b.X - a.X
	aby := b.Y - a.Y
	den := abx*abx + aby*aby
	if den == 0 {
		return p.Dist(a)
	}
	t := ((p.X-a.X)*abx + (p.Y-a.Y)*aby) / den
	if t < 0 {
		t = 0
	} else if t > 1 {
		t = 1
	}
	return p.Dist(Point{X: a.X + t*abx, Y: a.Y + t*aby})
}
