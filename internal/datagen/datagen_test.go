package datagen

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
)

func TestCityDeterminism(t *testing.T) {
	a := NewCity(geo.Rect{MaxX: 1000, MaxY: 1000}, 10, 7)
	b := NewCity(geo.Rect{MaxX: 1000, MaxY: 1000}, 10, 7)
	if len(a.Hotspots) != len(b.Hotspots) {
		t.Fatal("hotspot counts differ")
	}
	for i := range a.Hotspots {
		if a.Hotspots[i] != b.Hotspots[i] {
			t.Fatalf("hotspot %d differs", i)
		}
	}
	c := NewCity(geo.Rect{MaxX: 1000, MaxY: 1000}, 10, 8)
	same := true
	for i := range a.Hotspots {
		if a.Hotspots[i] != c.Hotspots[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical cities")
	}
}

func TestSampleStaysInBounds(t *testing.T) {
	c := NewYork()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		p := c.Sample(rng)
		if !c.Bounds.Contains(p) {
			t.Fatalf("sample %v outside bounds %v", p, c.Bounds)
		}
	}
}

func TestSampleIsSkewed(t *testing.T) {
	// Hotspot sampling must concentrate points near activity centers:
	// the mean distance to the nearest hotspot center must be far below
	// the uniform expectation.
	c := NewYork()
	rng := rand.New(rand.NewSource(2))
	nearest := func(p geo.Point) float64 {
		best := math.Inf(1)
		for _, h := range c.Hotspots {
			if d := p.Dist(h.Center); d < best {
				best = d
			}
		}
		return best
	}
	const n = 1000
	var hot, unif float64
	for i := 0; i < n; i++ {
		hot += nearest(c.Sample(rng))
		unif += nearest(c.uniform(rng))
	}
	if hot >= 0.5*unif {
		t.Errorf("hotspot sampling barely concentrated: mean nearest-hotspot %v vs uniform %v",
			hot/n, unif/n)
	}
}

func TestTaxiTrips(t *testing.T) {
	c := NewYork()
	trips := TaxiTrips(c, 1000, 3)
	if len(trips) != 1000 {
		t.Fatalf("got %d trips", len(trips))
	}
	for i, tr := range trips {
		if tr.Len() != 2 {
			t.Fatalf("trip %d has %d points", i, tr.Len())
		}
		if int(tr.ID) != i {
			t.Fatalf("trip %d has ID %d", i, tr.ID)
		}
		if !c.Bounds.Contains(tr.Source()) || !c.Bounds.Contains(tr.Dest()) {
			t.Fatalf("trip %d outside bounds", i)
		}
		if tr.Length() == 0 {
			t.Fatalf("trip %d has zero length", i)
		}
	}
	// Deterministic.
	again := TaxiTrips(c, 1000, 3)
	for i := range trips {
		if trips[i].Source() != again[i].Source() || trips[i].Dest() != again[i].Dest() {
			t.Fatal("TaxiTrips not deterministic")
		}
	}
	other := TaxiTrips(c, 1000, 4)
	if trips[0].Source() == other[0].Source() {
		t.Error("different seeds produced identical first trip")
	}
}

func TestCheckins(t *testing.T) {
	c := NewYork()
	trajs := Checkins(c, 500, 8, 5)
	if len(trajs) != 500 {
		t.Fatalf("got %d", len(trajs))
	}
	sawMulti := false
	for _, tr := range trajs {
		if tr.Len() < 2 || tr.Len() > 8 {
			t.Fatalf("checkin trajectory with %d points", tr.Len())
		}
		if tr.Len() > 2 {
			sawMulti = true
		}
		for _, p := range tr.Points {
			if !c.Bounds.Contains(p) {
				t.Fatal("checkin outside bounds")
			}
		}
	}
	if !sawMulti {
		t.Error("no multipoint check-in trajectories generated")
	}
}

func TestGPSTraces(t *testing.T) {
	c := Beijing()
	trajs := GPSTraces(c, 200, 10, 100, 6)
	if len(trajs) != 200 {
		t.Fatalf("got %d", len(trajs))
	}
	var totalPts int
	for _, tr := range trajs {
		if tr.Len() < 10 || tr.Len() > 100 {
			t.Fatalf("trace with %d points", tr.Len())
		}
		totalPts += tr.Len()
		// Steps should be bounded (clamping can shorten them, headings
		// are persistent) — just verify no teleports.
		for i := 0; i < tr.NumSegments(); i++ {
			if tr.SegmentLength(i) > 1200 {
				t.Fatalf("trace segment of %v m", tr.SegmentLength(i))
			}
		}
	}
	if avg := float64(totalPts) / 200; avg < 20 {
		t.Errorf("average trace length %v suspiciously short", avg)
	}
}

func TestBusRoutes(t *testing.T) {
	c := NewYork()
	for _, stops := range []int{1, 8, 64, 512} {
		routes := BusRoutes(c, 20, stops, 7)
		if len(routes) != 20 {
			t.Fatalf("got %d routes", len(routes))
		}
		for _, r := range routes {
			if len(r.Stops) != stops {
				t.Fatalf("route has %d stops, want %d", len(r.Stops), stops)
			}
			for _, s := range r.Stops {
				if !c.Bounds.Contains(s) {
					t.Fatal("stop outside bounds")
				}
			}
			// Consecutive stops should be spaced like a bus route, not
			// teleporting across the city.
			for i := 1; i < len(r.Stops); i++ {
				if d := r.Stops[i-1].Dist(r.Stops[i]); d > 1000 {
					t.Fatalf("stop spacing %v m too large", d)
				}
			}
		}
	}
}

func TestBusRouteSpacingRealistic(t *testing.T) {
	c := NewYork()
	routes := BusRoutes(c, 10, 32, 9)
	var sum float64
	var count int
	for _, r := range routes {
		for i := 1; i < len(r.Stops); i++ {
			sum += r.Stops[i-1].Dist(r.Stops[i])
			count++
		}
	}
	avg := sum / float64(count)
	if math.Abs(avg-400) > 150 {
		t.Errorf("average stop spacing %v m, want ~400", avg)
	}
}

func TestPaperConstants(t *testing.T) {
	// Guard the paper-scale constants against accidental edits.
	if NYT3Days != 1032637 || NYT1Day != 357139 {
		t.Error("NYT constants drifted from Table II")
	}
	if NYRoutes != 2024 || NYStops != 16999 || BJRoutes != 1842 || BJStops != 21489 {
		t.Error("facility constants drifted from Table I")
	}
	if NYFTrajectories != 212751 || BJGTrajectories != 30266 {
		t.Error("user dataset constants drifted from Table II")
	}
}
