package service

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// rastered reports whether the set built its ψ-cell bitmap.
func rastered(ss *StopSet) bool { return ss.cols > 0 }

// checkServed asserts the set answers exactly as the linear scan does.
func checkServed(t *testing.T, ss *StopSet, p geo.Point) {
	t.Helper()
	if got, want := ss.Served(p), PointServed(p, ss.stops, ss.psi); got != want {
		t.Fatalf("Served(%v) = %v, linear scan = %v (stops=%d psi=%v raster=%dx%d)",
			p, got, want, len(ss.stops), ss.psi, ss.cols, ss.rows)
	}
}

// TestStopSetServedMatchesLinear is the raster's contract: whatever mode
// a set chose, Served equals PointServed — on random points, on points a
// hair inside, exactly at, and a hair past ψ from a stop (along the axes,
// where a cell-border error would show, and at arbitrary angles), on the
// raster's own cell borders, outside the EMBR, and on negative
// coordinates.
func TestStopSetServedMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sawRaster, sawScan := false, false
	for trial := 0; trial < 120; trial++ {
		n := 1 + rng.Intn(6)
		if trial%2 == 0 {
			n = rasterMinStops + rng.Intn(300)
		}
		// Origins far from zero (and negative) make the cell arithmetic
		// round; integral ψ and coordinates make "exactly ψ away" exact.
		ox, oy := (rng.Float64()-0.5)*2e6, (rng.Float64()-0.5)*2e6
		span := 500 + rng.Float64()*20000
		psi := 50 + rng.Float64()*400
		if trial%3 == 0 {
			ox, oy, psi = math.Round(ox), math.Round(oy), math.Round(psi)
		}
		stops := make([]geo.Point, n)
		for i := range stops {
			stops[i] = geo.Pt(ox+rng.Float64()*span, oy+rng.Float64()*span)
			if trial%3 == 0 {
				stops[i] = geo.Pt(math.Round(stops[i].X), math.Round(stops[i].Y))
			}
		}
		ss := AcquireStopSet(stops, psi, 1<<20)
		if rastered(ss) {
			sawRaster = true
		} else {
			sawScan = true
		}
		for probe := 0; probe < 400; probe++ {
			s := stops[rng.Intn(n)]
			switch probe % 5 {
			case 0: // anywhere over the EMBR and a margin outside it
				checkServed(t, ss, geo.Pt(ox-2*psi+rng.Float64()*(span+4*psi), oy-2*psi+rng.Float64()*(span+4*psi)))
			case 1: // near a stop
				checkServed(t, ss, geo.Pt(s.X+rng.NormFloat64()*psi, s.Y+rng.NormFloat64()*psi))
			case 2: // on the ψ-circle, just inside, just outside
				ang := rng.Float64() * 2 * math.Pi
				for _, f := range []float64{1 - 1e-12, 1, 1 + 1e-12} {
					checkServed(t, ss, geo.Pt(s.X+math.Cos(ang)*psi*f, s.Y+math.Sin(ang)*psi*f))
				}
			case 3: // exactly ψ away along an axis, and one ulp to each side
				for _, d := range [][2]float64{{psi, 0}, {-psi, 0}, {0, psi}, {0, -psi}} {
					p := geo.Pt(s.X+d[0], s.Y+d[1])
					checkServed(t, ss, p)
					checkServed(t, ss, geo.Pt(math.Nextafter(p.X, math.Inf(1)), math.Nextafter(p.Y, math.Inf(1))))
					checkServed(t, ss, geo.Pt(math.Nextafter(p.X, math.Inf(-1)), math.Nextafter(p.Y, math.Inf(-1))))
				}
			default: // on the raster's own cell borders
				if !rastered(ss) {
					continue
				}
				cell := 1 / ss.invCell
				bx := ss.minX + float64(rng.Intn(ss.cols+1))*cell
				by := ss.minY + float64(rng.Intn(ss.rows+1))*cell
				checkServed(t, ss, geo.Pt(bx, by))
				checkServed(t, ss, geo.Pt(bx, s.Y))
				checkServed(t, ss, geo.Pt(math.Nextafter(bx, math.Inf(-1)), by))
			}
		}
		ss.Release()
	}
	if !sawRaster || !sawScan {
		t.Fatalf("modes exercised: raster %v, scan %v — want both", sawRaster, sawScan)
	}
}

// TestStopSetModeSelection pins the choice between scan and raster to
// what init can see: stop count, expected queries, ψ, and the cell count
// against the cap.
func TestStopSetModeSelection(t *testing.T) {
	mkStops := func(n int, step float64) []geo.Point {
		stops := make([]geo.Point, n)
		for i := range stops {
			stops[i] = geo.Pt(float64(i)*step, float64(i%7)*step)
		}
		return stops
	}
	for _, tc := range []struct {
		name    string
		stops   []geo.Point
		psi     float64
		queries int
		raster  bool
	}{
		{"paper default component", mkStops(32, 100), 50, 1000, true},
		{"too few stops", mkStops(rasterMinStops-1, 100), 50, 1000, false},
		{"just enough stops", mkStops(rasterMinStops, 100), 50, 1000, true},
		{"too few queries", mkStops(200, 100), 50, rasterMinQueries - 1, false},
		{"just enough queries", mkStops(200, 100), 50, rasterMinQueries, true},
		{"zero psi", mkStops(200, 100), 0, 1000, false},
		{"psi so small the cap trips", mkStops(32, 1000), 1, 1000, false},
		{"psi tiny beyond any int", mkStops(32, 1e6), 1e-300, 1000, false},
		{"all stops on one point", make([]geo.Point, 8), 10, 1000, true},
	} {
		ss := AcquireStopSet(tc.stops, tc.psi, tc.queries)
		if rastered(ss) != tc.raster {
			t.Errorf("%s: raster=%v, want %v", tc.name, rastered(ss), tc.raster)
		}
		if rastered(ss) && ss.cols*ss.rows > rasterMaxCells {
			t.Errorf("%s: %d cells over the cap", tc.name, ss.cols*ss.rows)
		}
		for _, s := range tc.stops {
			checkServed(t, ss, s)
			checkServed(t, ss, geo.Pt(s.X+tc.psi, s.Y))
			checkServed(t, ss, geo.Pt(s.X-3*tc.psi, s.Y+3*tc.psi))
		}
		ss.Release()
	}
	// With no hint, size alone decides.
	if rastered(NewStopSet(mkStops(unhintedRasterStops, 100), 50)) {
		t.Error("NewStopSet built a raster for a small set")
	}
	if !rastered(NewStopSet(mkStops(unhintedRasterStops+1, 100), 50)) {
		t.Error("NewStopSet built no raster for a large set")
	}
}

// TestStopSetNaNStop: a NaN coordinate (the library does not reject one)
// must not take the raster out of bounds; such a stop serves nothing.
func TestStopSetNaNStop(t *testing.T) {
	stops := []geo.Point{geo.Pt(0, 0), geo.Pt(100, 100), geo.Pt(math.NaN(), 50), geo.Pt(50, math.NaN()), geo.Pt(200, 0)}
	ss := AcquireStopSet(stops, 30, 1000)
	defer ss.Release()
	for _, p := range []geo.Point{geo.Pt(10, 10), geo.Pt(100, 120), geo.Pt(50, 50), geo.Pt(math.NaN(), 0), geo.Pt(1e300, -1e300)} {
		checkServed(t, ss, p)
	}
}

func TestValueSetMatchesValue(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 100; trial++ {
		npts := 2 + rng.Intn(10)
		pts := make([]geo.Point, npts)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
		}
		u := trajectory.MustNew(trajectory.ID(trial), pts)
		nstops := 1 + rng.Intn(80)
		stops := make([]geo.Point, nstops)
		for i := range stops {
			stops[i] = geo.Pt(rng.Float64()*2000, rng.Float64()*2000)
		}
		psi := 30 + rng.Float64()*300
		ss := NewStopSet(stops, psi)
		for sc := Binary; sc <= Length; sc++ {
			a := Value(sc, u, stops, psi)
			b := ValueSet(sc, u, ss)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("%v: Value %v != ValueSet %v (stops=%d)", sc, a, b, nstops)
			}
		}
	}
}

func TestStopSetPointsOutsideGridBounds(t *testing.T) {
	// Stops clustered in a corner; probes far outside the stop MBR must
	// not panic and must report false (or true within psi).
	stops := make([]geo.Point, 64)
	for i := range stops {
		stops[i] = geo.Pt(float64(i%8)*10, float64(i/8)*10)
	}
	ss := NewStopSet(stops, 25)
	if ss.Served(geo.Pt(1e7, -1e7)) {
		t.Error("far point reported served")
	}
	if !ss.Served(geo.Pt(-20, -15)) {
		t.Error("point within psi below origin not served")
	}
}

func TestStopSetEmptyAndZeroPsi(t *testing.T) {
	ss := NewStopSet(nil, 100)
	if ss.Served(geo.Pt(0, 0)) {
		t.Error("empty stop set served a point")
	}
	stops := []geo.Point{geo.Pt(5, 5)}
	zero := NewStopSet(stops, 0)
	if !zero.Served(geo.Pt(5, 5)) {
		t.Error("zero psi did not serve the exact stop location")
	}
	if zero.Served(geo.Pt(5.001, 5)) {
		t.Error("zero psi served a displaced point")
	}
}

func TestAcquireStopSetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	// Cycle sets of varying sizes through the pool: a reused bitmap must
	// answer identically to a fresh one, including after shrinking from
	// a raster-mode set to a linear-mode one.
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(2*unhintedRasterStops)
		stops := make([]geo.Point, n)
		for i := range stops {
			stops[i] = geo.Pt(rng.Float64()*3000, rng.Float64()*3000)
		}
		psi := 40 + rng.Float64()*300
		pooled := AcquireStopSet(stops, psi, 1<<30)
		fresh := NewStopSet(stops, psi)
		for probe := 0; probe < 200; probe++ {
			p := geo.Pt(rng.Float64()*3000, rng.Float64()*3000)
			if pooled.Served(p) != fresh.Served(p) {
				t.Fatalf("trial %d: pooled and fresh disagree at %v (n=%d)", trial, p, n)
			}
		}
		pooled.Release()
	}
}

// TestStopSetAccessors: a set keeps the stops and threshold it was built
// for, which its linear scan reads.
func TestStopSetAccessors(t *testing.T) {
	stops := []geo.Point{geo.Pt(1, 2), geo.Pt(3, 4)}
	ss := NewStopSet(stops, 42)
	if ss.psi != 42 || len(ss.stops) != 2 {
		t.Errorf("set holds ψ %v and %d stops, want 42 and 2", ss.psi, len(ss.stops))
	}
}

func TestStopSetReleaseDropsStops(t *testing.T) {
	stops := []geo.Point{geo.Pt(1, 1)}
	ss := AcquireStopSet(stops, 10, 1<<30)
	ss.Release()
	if ss.stops != nil {
		t.Error("Release kept the stops reference")
	}
}
