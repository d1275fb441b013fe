package trajcover

import (
	"math"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
)

// TestSimplifyThroughIndex drives Simplify the way its doc says to use it
// — raw GPS traces in, a Segmented index over the result — and checks
// what Douglas–Peucker promises: each trajectory keeps its ID and its two
// endpoints, its points are a subsequence of the trace's, and every point
// of the trace lies within ε of the simplified polyline. A segment
// index over the simplified set serves exactly what a direct count over
// that set finds. A negative ε keeps every point: dpMark keeps a point
// farther than ε from its span, and every distance is.
func TestSimplifyThroughIndex(t *testing.T) {
	city := NewYorkCity()
	traces := GPSTraces(city, 300, 12, 40, 71)
	const eps = 150.0
	simple, err := Simplify(traces, eps)
	if err != nil {
		t.Fatal(err)
	}
	if len(simple) != len(traces) {
		t.Fatalf("%d trajectories simplified to %d", len(traces), len(simple))
	}
	before, after := 0, 0
	for i, raw := range traces {
		s := simple[i]
		before, after = before+raw.Len(), after+s.Len()
		if s.ID != raw.ID || s.Points[0] != raw.Points[0] || s.Points[s.Len()-1] != raw.Points[raw.Len()-1] {
			t.Fatalf("trajectory %d: ID or endpoints changed: %v..%v -> %v..%v", raw.ID, raw.Source(), raw.Dest(), s.Source(), s.Dest())
		}
		// The kept points are a subsequence of the trace (matched
		// greedily, which finds one whenever there is one) ...
		k := 0
		for _, p := range raw.Points {
			if k < s.Len() && p == s.Points[k] {
				k++
			}
		}
		if k != s.Len() {
			t.Fatalf("trajectory %d: %d of its %d points are not a subsequence of the trace", raw.ID, s.Len()-k, s.Len())
		}
		// ... and every trace point lies within eps of their polyline.
		for j, p := range raw.Points {
			d := math.Inf(1)
			for m := 0; m+1 < s.Len(); m++ {
				d = min(d, geo.DistPointSegment(p, s.Points[m], s.Points[m+1]))
			}
			if d > eps {
				t.Fatalf("trajectory %d: point %d is %v from the simplified polyline, over eps %v", raw.ID, j, d, eps)
			}
		}
	}
	if after >= before {
		t.Fatalf("eps %v kept all %d points: the check above proved nothing", eps, before)
	}
	t.Logf("eps %v: %d trace points -> %d", eps, before, after)

	idx, err := NewIndex(simple, IndexOptions{Variant: Segmented})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	positive := 0
	for _, f := range BusRoutes(city, 12, 16, 72) {
		got, err := idx.ServiceValue(f, q)
		if err != nil {
			t.Fatal(err)
		}
		// A segment is served when both its endpoints are.
		want := 0
		for _, u := range simple {
			for j := 0; j+1 < u.Len(); j++ {
				if service.PointServed(u.Points[j], f.Stops, q.Psi) && service.PointServed(u.Points[j+1], f.Stops, q.Psi) {
					want++
				}
			}
		}
		if got != float64(want) {
			t.Fatalf("route %d: ServiceValue %v, a direct count of served segments %d", f.ID, got, want)
		}
		if want > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Fatal("no route serves a segment: the comparison proved nothing")
	}

	kept, err := Simplify(traces, -1)
	if err != nil {
		t.Fatal(err)
	}
	for i, raw := range traces {
		if kept[i].ID != raw.ID || kept[i].Len() != raw.Len() {
			t.Fatalf("eps -1: trajectory %d has %d points, the trace %d", raw.ID, kept[i].Len(), raw.Len())
		}
		for j, p := range raw.Points {
			if q := kept[i].Points[j]; math.Float64bits(q.X) != math.Float64bits(p.X) || math.Float64bits(q.Y) != math.Float64bits(p.Y) {
				t.Fatalf("eps -1: trajectory %d point %d is %v, the trace's %v", raw.ID, j, q, p)
			}
		}
	}
}
