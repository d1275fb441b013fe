package geo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointDist(t *testing.T) {
	tests := []struct {
		name string
		p, q Point
		want float64
	}{
		{"same point", Pt(1, 2), Pt(1, 2), 0},
		{"unit x", Pt(0, 0), Pt(1, 0), 1},
		{"unit y", Pt(0, 0), Pt(0, 1), 1},
		{"3-4-5", Pt(0, 0), Pt(3, 4), 5},
		{"negative coords", Pt(-3, -4), Pt(0, 0), 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.p.Dist(tt.q); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Dist(%v,%v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		return math.Abs(a.Dist(b)-b.Dist(a)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist2MatchesDistSquared(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		// Clamp inputs to a sane range to avoid overflow-driven noise.
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		d := a.Dist(b)
		return math.Abs(a.Dist2(b)-d*d) <= 1e-6*(1+d*d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		a := Pt(math.Mod(ax, 1e6), math.Mod(ay, 1e6))
		b := Pt(math.Mod(bx, 1e6), math.Mod(by, 1e6))
		c := Pt(math.Mod(cx, 1e6), math.Mod(cy, 1e6))
		return a.Dist(c) <= a.Dist(b)+b.Dist(c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewRectNormalizesCorners(t *testing.T) {
	r := NewRect(Pt(5, 1), Pt(2, 7))
	want := Rect{MinX: 2, MinY: 1, MaxX: 5, MaxY: 7}
	if r != want {
		t.Errorf("NewRect = %v, want %v", r, want)
	}
}

func TestRectOf(t *testing.T) {
	pts := []Point{Pt(1, 5), Pt(-2, 3), Pt(4, -1)}
	want := Rect{MinX: -2, MinY: -1, MaxX: 4, MaxY: 5}
	if got := RectOf(pts); got != want {
		t.Errorf("RectOf = %v, want %v", got, want)
	}
}

func TestRectOfEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RectOf(nil) did not panic")
		}
	}()
	RectOf(nil)
}

func TestRectContains(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	tests := []struct {
		p    Point
		want bool
	}{
		{Pt(5, 5), true},
		{Pt(0, 0), true},   // boundary
		{Pt(10, 10), true}, // boundary
		{Pt(10.01, 5), false},
		{Pt(-0.01, 5), false},
		{Pt(5, 11), false},
	}
	for _, tt := range tests {
		if got := r.Contains(tt.p); got != tt.want {
			t.Errorf("Contains(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestRectIntersects(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	tests := []struct {
		name string
		s    Rect
		want bool
	}{
		{"overlapping", Rect{5, 5, 15, 15}, true},
		{"contained", Rect{2, 2, 4, 4}, true},
		{"containing", Rect{-5, -5, 15, 15}, true},
		{"touching edge", Rect{10, 0, 20, 10}, true},
		{"touching corner", Rect{10, 10, 20, 20}, true},
		{"disjoint right", Rect{11, 0, 20, 10}, false},
		{"disjoint above", Rect{0, 11, 10, 20}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := r.Intersects(tt.s); got != tt.want {
				t.Errorf("Intersects(%v) = %v, want %v", tt.s, got, tt.want)
			}
			// Intersection must be symmetric.
			if got := tt.s.Intersects(r); got != tt.want {
				t.Errorf("Intersects not symmetric for %v", tt.s)
			}
		})
	}
}

func TestRectExpand(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	got := r.Expand(2.5)
	want := Rect{MinX: -2.5, MinY: -2.5, MaxX: 12.5, MaxY: 12.5}
	// Containment, and a pad no wider than 2^-39 of the largest magnitude.
	slack := 12.5 * 0x1p-39
	if !got.ContainsRect(want) || !want.Expand(slack).ContainsRect(got) {
		t.Errorf("Expand = %v, want %v padded by at most %g", got, want, slack)
	}
}

// TestExpandHoldsEveryServedPoint: a point Dist2 accepts at exactly ψ —
// walked outward ulp by ulp until one more step would leave ψ — lies in
// the stop's ψ-expansion, at every magnitude.
func TestExpandHoldsEveryServedPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		mag := math.Pow(10, float64(1+trial%7))
		s := Pt((rng.Float64()-0.5)*mag, (rng.Float64()-0.5)*mag)
		psi := rng.Float64() * mag
		for _, dir := range []Point{{X: -1}, {X: 1}, {Y: -1}, {Y: 1}} {
			p := farthestServed(s, psi, dir)
			if p.Dist2(s) > psi*psi {
				t.Fatalf("probe %v is not served by %v at ψ %v", p, s, psi)
			}
			if e := (Rect{MinX: s.X, MinY: s.Y, MaxX: s.X, MaxY: s.Y}).Expand(psi); !e.Contains(p) {
				t.Fatalf("served point %v outside %v: stop %v, ψ %v", p, e, s, psi)
			}
		}
	}
}

// farthestServed steps from s by ψ along dir, then ulp by ulp further out
// while Dist2 still serves, and back in while it does not.
func farthestServed(s Point, psi float64, dir Point) Point {
	p := Pt(s.X+dir.X*psi, s.Y+dir.Y*psi)
	step := func(p Point, out bool) Point {
		sign := 1.0
		if !out {
			sign = -1
		}
		if dir.X != 0 {
			p.X = math.Nextafter(p.X, math.Inf(int(sign*dir.X)))
		} else {
			p.Y = math.Nextafter(p.Y, math.Inf(int(sign*dir.Y)))
		}
		return p
	}
	psi2 := psi * psi
	for p.Dist2(s) > psi2 {
		p = step(p, false)
	}
	for q := step(p, true); q.Dist2(s) <= psi2; q = step(q, true) {
		p = q
	}
	return p
}

func TestQuadrantsPartitionRect(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 8, MaxY: 8}
	// The four quadrants must tile r exactly.
	union := r.Quadrant(0)
	var area float64
	for q := 0; q < 4; q++ {
		sub := r.Quadrant(q)
		area += sub.Width() * sub.Height()
		union = union.ExtendRect(sub)
	}
	if union != r {
		t.Errorf("quadrants union = %v, want %v", union, r)
	}
	if math.Abs(area-r.Width()*r.Height()) > 1e-9 {
		t.Errorf("quadrant areas sum to %v, want %v", area, r.Width()*r.Height())
	}
}

func TestQuadrantOfMatchesQuadrantRects(t *testing.T) {
	r := Rect{MinX: -4, MinY: -4, MaxX: 4, MaxY: 4}
	f := func(px, py float64) bool {
		p := Pt(math.Mod(math.Abs(px), 8)-4, math.Mod(math.Abs(py), 8)-4)
		q := r.QuadrantOf(p)
		return r.Quadrant(q).Contains(p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuadrantOfCenterTieBreak(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	if q := r.QuadrantOf(Pt(5, 5)); q != QuadNE {
		t.Errorf("center assigned to quadrant %d, want NE (%d)", q, QuadNE)
	}
	if q := r.QuadrantOf(Pt(5, 0)); q != QuadSE {
		t.Errorf("center-x bottom assigned to %d, want SE (%d)", q, QuadSE)
	}
}

func TestDistToPoint(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	tests := []struct {
		p    Point
		want float64
	}{
		{Pt(5, 5), 0},   // inside
		{Pt(0, 0), 0},   // corner
		{Pt(15, 5), 5},  // right of
		{Pt(5, -3), 3},  // below
		{Pt(13, 14), 5}, // diagonal 3-4-5
		{Pt(-3, -4), 5}, // diagonal other corner
	}
	for _, tt := range tests {
		if got := math.Sqrt(r.Dist2ToPoint(tt.p)); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("sqrt(Dist2ToPoint(%v)) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

// distToPoint is the minimum distance from p to r (zero inside r),
// computed independently of Dist2ToPoint's squared form.
func distToPoint(r Rect, p Point) float64 {
	dx := math.Max(0, math.Max(r.MinX-p.X, p.X-r.MaxX))
	dy := math.Max(0, math.Max(r.MinY-p.Y, p.Y-r.MaxY))
	return math.Hypot(dx, dy)
}

func TestDist2ToPointMatchesDistToPoint(t *testing.T) {
	r := Rect{MinX: -3, MinY: 2, MaxX: 9, MaxY: 17}
	f := func(px, py float64) bool {
		p := Pt(math.Mod(px, 100), math.Mod(py, 100))
		d := distToPoint(r, p)
		return math.Abs(r.Dist2ToPoint(p)-d*d) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistPointSegment(t *testing.T) {
	tests := []struct {
		name    string
		p, a, b Point
		want    float64
	}{
		{"projects inside", Pt(5, 5), Pt(0, 0), Pt(10, 0), 5},
		{"clamps to a", Pt(-3, 4), Pt(0, 0), Pt(10, 0), 5},
		{"clamps to b", Pt(13, 4), Pt(0, 0), Pt(10, 0), 5},
		{"degenerate segment", Pt(3, 4), Pt(0, 0), Pt(0, 0), 5},
		{"point on segment", Pt(5, 0), Pt(0, 0), Pt(10, 0), 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := DistPointSegment(tt.p, tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("DistPointSegment = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestDistPointSegmentLowerBoundsEndpoints(t *testing.T) {
	// d(p, seg) <= min(d(p,a), d(p,b)) for all p.
	f := func(px, py, ax, ay, bx, by float64) bool {
		p := Pt(math.Mod(px, 1e4), math.Mod(py, 1e4))
		a := Pt(math.Mod(ax, 1e4), math.Mod(ay, 1e4))
		b := Pt(math.Mod(bx, 1e4), math.Mod(by, 1e4))
		d := DistPointSegment(p, a, b)
		return d <= p.Dist(a)+1e-9 && d <= p.Dist(b)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestExtendPoint(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	r = r.ExtendPoint(Pt(5, -2))
	want := Rect{MinX: 0, MinY: -2, MaxX: 5, MaxY: 1}
	if r != want {
		t.Errorf("ExtendPoint = %v, want %v", r, want)
	}
	// Extending with an interior point is a no-op.
	if got := r.ExtendPoint(Pt(1, 0)); got != r {
		t.Errorf("ExtendPoint interior changed rect: %v", got)
	}
}

func TestCenterAndDims(t *testing.T) {
	r := Rect{MinX: 2, MinY: 4, MaxX: 10, MaxY: 8}
	if c := r.Quadrant(QuadSW); c.MaxX != 6 || c.MaxY != 6 {
		t.Errorf("quadrants meet at (%v,%v), want the center (6,6)", c.MaxX, c.MaxY)
	}
	if r.Width() != 8 || r.Height() != 4 {
		t.Errorf("Width,Height = %v,%v want 8,4", r.Width(), r.Height())
	}
}
