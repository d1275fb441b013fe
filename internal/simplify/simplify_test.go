package simplify

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func TestDouglasPeuckerKeepsEndpoints(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(1, 5), geo.Pt(2, 0), geo.Pt(3, 5), geo.Pt(4, 0)}
	out := DouglasPeucker(pts, 0.1)
	if out[0] != pts[0] || out[len(out)-1] != pts[len(pts)-1] {
		t.Error("endpoints not preserved")
	}
}

func TestDouglasPeuckerCollinear(t *testing.T) {
	// Perfectly collinear points collapse to the two endpoints.
	pts := make([]geo.Point, 50)
	for i := range pts {
		pts[i] = geo.Pt(float64(i), 2*float64(i))
	}
	out := DouglasPeucker(pts, 0.001)
	if len(out) != 2 {
		t.Errorf("collinear simplified to %d points, want 2", len(out))
	}
}

func TestDouglasPeuckerKeepsSharpFeatures(t *testing.T) {
	// A zig-zag above the tolerance must keep its corners.
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 100), geo.Pt(20, 0), geo.Pt(30, 100), geo.Pt(40, 0)}
	out := DouglasPeucker(pts, 1)
	if len(out) != len(pts) {
		t.Errorf("zig-zag lost corners: %d of %d kept", len(out), len(pts))
	}
}

func TestDeviationBoundedByEpsilon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 10 + rng.Intn(200)
		pts := make([]geo.Point, n)
		x, y := 0.0, 0.0
		for i := range pts {
			x += rng.Float64() * 10
			y += rng.NormFloat64() * 5
			pts[i] = geo.Pt(x, y)
		}
		eps := 0.5 + rng.Float64()*10
		out := DouglasPeucker(pts, eps)
		if dev := maxDeviation(pts, out); dev > eps+1e-9 {
			t.Fatalf("trial %d: deviation %v exceeds epsilon %v (kept %d/%d)",
				trial, dev, eps, len(out), n)
		}
		// Order preserved, subsequence of input.
		j := 0
		for _, p := range out {
			for j < n && pts[j] != p {
				j++
			}
			if j == n {
				t.Fatal("output is not an ordered subsequence of the input")
			}
		}
	}
}

func TestDeviationMonotoneInEpsilon(t *testing.T) {
	city := datagen.Beijing()
	traces := datagen.GPSTraces(city, 20, 30, 100, 7)
	for _, tr := range traces {
		prev := tr.Len()
		for _, eps := range []float64{1, 10, 100, 1000} {
			out := DouglasPeucker(tr.Points, eps)
			if len(out) > prev {
				t.Fatalf("epsilon %v kept more points (%d) than smaller epsilon (%d)",
					eps, len(out), prev)
			}
			prev = len(out)
		}
	}
}

func TestTrajectoryAndSet(t *testing.T) {
	city := datagen.Beijing()
	traces := datagen.GPSTraces(city, 30, 20, 80, 9)
	simplified, err := Set(traces, 50)
	if err != nil {
		t.Fatal(err)
	}
	var before, after int
	for i := range traces {
		if simplified[i].ID != traces[i].ID {
			t.Fatal("ID not preserved")
		}
		if simplified[i].Len() < 2 {
			t.Fatal("simplified below 2 points")
		}
		before += traces[i].Len()
		after += simplified[i].Len()
	}
	if after >= before {
		t.Errorf("simplification did not reduce points: %d -> %d", before, after)
	}
	// Length can only shrink (triangle inequality).
	for i := range traces {
		if simplified[i].Length() > traces[i].Length()+1e-9 {
			t.Error("simplified longer than original")
		}
	}
}

func TestTwoPointUnchanged(t *testing.T) {
	u := trajectory.MustNew(1, []geo.Point{geo.Pt(0, 0), geo.Pt(5, 5)})
	out, err := Trajectory(u, 100)
	if err != nil {
		t.Fatal(err)
	}
	if out != u {
		t.Error("two-point trajectory was copied unnecessarily")
	}
}

func TestMaxDeviationDegenerate(t *testing.T) {
	pts := []geo.Point{geo.Pt(0, 0), geo.Pt(3, 4)}
	if d := maxDeviation(pts, []geo.Point{geo.Pt(0, 0)}); math.Abs(d-5) > 1e-12 {
		t.Errorf("single-point deviation = %v, want 5", d)
	}
}

// maxDeviation returns the largest distance from any point of the
// original polyline to the simplified one — the quantity DouglasPeucker
// bounds by epsilon. It is O(n·m): a test oracle.
func maxDeviation(original, simplified []geo.Point) float64 {
	var worst float64
	for _, p := range original {
		best := -1.0
		for i := 1; i < len(simplified); i++ {
			d := geo.DistPointSegment(p, simplified[i-1], simplified[i])
			if best < 0 || d < best {
				best = d
			}
		}
		if len(simplified) == 1 {
			best = p.Dist(simplified[0])
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}
