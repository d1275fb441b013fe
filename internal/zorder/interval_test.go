package zorder

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
)

// maxCode is the largest code PointCode can produce (MaxDepth levels).
const maxCode = 1<<(2*MaxDepth) - 1

func covers(ivs []Interval, code uint64) bool {
	for _, iv := range ivs {
		if code >= iv.Lo && code <= iv.Hi {
			return true
		}
	}
	return false
}

// randomBounds returns a space whose sides are not powers of two, so float
// quadrant midpoints and PointCode's grid lines disagree in the last bits.
func randomBounds(rng *rand.Rand) geo.Rect {
	x := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(6)))
	y := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(6)))
	w := (0.3 + rng.Float64()) * math.Pow(10, float64(rng.Intn(6)))
	h := (0.3 + rng.Float64()) * math.Pow(10, float64(rng.Intn(6)))
	return geo.Rect{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
}

func sign(n int) int {
	if n < 0 {
		return -1
	}
	return 1
}

// quadrantLines returns the split lines of a random descent of bounds,
// where a rect edge most easily falls between a float quadrant and
// PointCode's grid cell.
func quadrantLines(rng *rand.Rand, bounds geo.Rect) (xs, ys []float64) {
	r := bounds
	for d := 0; d < 14; d++ {
		xs = append(xs, (r.MinX+r.MaxX)/2)
		ys = append(ys, (r.MinY+r.MaxY)/2)
		r = r.Quadrant(rng.Intn(4))
	}
	return xs, ys
}

func TestCoverIntervalsSoundness(t *testing.T) {
	// Every point inside the query rect must have its code covered, on
	// non-dyadic bounds and with rect edges on quadrant split lines.
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4000; trial++ {
		bounds := randomBounds(rng)
		xs, ys := quadrantLines(rng, bounds)
		pick := func(lines []float64, lo, span float64) float64 {
			if rng.Intn(2) == 0 {
				return lo + rng.Float64()*span
			}
			// A split line, nudged a few ulps either way.
			v := lines[rng.Intn(len(lines))]
			for n := rng.Intn(9) - 4; n != 0; n -= sign(n) {
				v = math.Nextafter(v, math.Inf(sign(n)))
			}
			return v
		}
		a := geo.Pt(pick(xs, bounds.MinX, bounds.Width()), pick(ys, bounds.MinY, bounds.Height()))
		b := geo.Pt(pick(xs, bounds.MinX, bounds.Width()), pick(ys, bounds.MinY, bounds.Height()))
		rect := geo.NewRect(a, b)
		ivs := CoverIntervalsAuto(bounds, rect, 1+rng.Intn(16), nil)
		if len(ivs) == 0 {
			t.Fatal("no intervals for intersecting rect")
		}
		probes := []geo.Point{
			{X: rect.MinX, Y: rect.MinY}, {X: rect.MaxX, Y: rect.MaxY},
			{X: rect.MinX, Y: rect.MaxY}, {X: rect.MaxX, Y: rect.MinY},
			{X: math.Nextafter(rect.MinX, math.Inf(1)), Y: math.Nextafter(rect.MinY, math.Inf(1))},
			{X: math.Nextafter(rect.MaxX, math.Inf(-1)), Y: math.Nextafter(rect.MaxY, math.Inf(-1))},
		}
		for probe := 0; probe < 50; probe++ {
			probes = append(probes, geo.Pt(
				rect.MinX+rng.Float64()*rect.Width(),
				rect.MinY+rng.Float64()*rect.Height(),
			))
		}
		for _, p := range probes {
			if !rect.Contains(p) {
				continue
			}
			if code := PointCode(bounds, p); !covers(ivs, code) {
				t.Fatalf("trial %d: point %v code %d not covered by %v (rect %v, bounds %v)",
					trial, p, code, ivs, rect, bounds)
			}
		}
	}
}

func TestCoverIntervalsSortedDisjointBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 500; trial++ {
		bounds := randomBounds(rng)
		a := geo.Pt(bounds.MinX+rng.Float64()*bounds.Width(), bounds.MinY+rng.Float64()*bounds.Height())
		b := geo.Pt(bounds.MinX+rng.Float64()*bounds.Width(), bounds.MinY+rng.Float64()*bounds.Height())
		rect := geo.NewRect(a, b)
		maxIv := 1 + rng.Intn(20)
		ivs := CoverIntervalsAuto(bounds, rect, maxIv, nil)
		if len(ivs) > maxIv {
			t.Fatalf("emitted %d intervals, budget %d", len(ivs), maxIv)
		}
		for i, iv := range ivs {
			if iv.Lo > iv.Hi || iv.Hi > maxCode {
				t.Fatalf("bad interval %v", iv)
			}
			if i > 0 && ivs[i-1].Hi >= iv.Lo {
				t.Fatalf("intervals overlap or touch unmerged: %v then %v", ivs[i-1], iv)
			}
		}
	}
}

func TestCoverIntervalsSplitLineRect(t *testing.T) {
	// A rect straddling the center vertical line has a near-total naive
	// code range; the decomposition must produce a far tighter cover.
	bounds := geo.Rect{MinX: 3.7, MinY: -11.1, MaxX: 1003.1, MaxY: 997.3}
	rect := geo.Rect{MinX: 480, MinY: 100, MaxX: 520, MaxY: 140}
	ivs := CoverIntervalsAuto(bounds, rect, 16, nil)
	var covered uint64
	for _, iv := range ivs {
		covered += iv.Hi - iv.Lo + 1
	}
	naive := PointCode(bounds, geo.Pt(rect.MaxX, rect.MaxY)) -
		PointCode(bounds, geo.Pt(rect.MinX, rect.MinY))
	if covered >= naive/4 {
		t.Errorf("decomposition covered %d codes, naive range %d — no tightening", covered, naive)
	}
}

func TestCoverIntervalsDisjointRect(t *testing.T) {
	bounds := geo.Rect{MinX: 0.3, MinY: 0.7, MaxX: 10.1, MaxY: 9.9}
	if ivs := CoverIntervalsAuto(bounds, geo.Rect{MinX: 20, MinY: 20, MaxX: 30, MaxY: 30}, 8, nil); len(ivs) != 0 {
		t.Errorf("disjoint rect produced intervals: %v", ivs)
	}
}

func TestCoverIntervalsFullSpace(t *testing.T) {
	bounds := geo.Rect{MinX: 0.3, MinY: 0.7, MaxX: 10.1, MaxY: 9.9}
	ivs := CoverIntervalsAuto(bounds, bounds.Expand(1), 8, nil)
	if len(ivs) != 1 || ivs[0].Lo != 0 || ivs[0].Hi != maxCode {
		t.Errorf("full-space cover = %v, want single [0, maxCode]", ivs)
	}
}

func TestCoverIntervalsReusesBuffer(t *testing.T) {
	bounds := geo.Rect{MinX: 0.3, MinY: 0.7, MaxX: 100.1, MaxY: 99.9}
	buf := make([]Interval, 0, 32)
	rect := geo.Rect{MinX: 10, MinY: 10, MaxX: 20, MaxY: 20}
	out := CoverIntervalsAuto(bounds, rect, 16, buf)
	if len(out) == 0 || &out[:1][0] != &buf[:1][0] {
		t.Error("buffer not reused despite sufficient capacity")
	}
	if n := testing.AllocsPerRun(100, func() { CoverIntervalsAuto(bounds, rect, 16, buf) }); n != 0 {
		t.Errorf("CoverIntervalsAuto allocated %.0f times with a sufficient buffer", n)
	}
}
