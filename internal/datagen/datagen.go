// Package datagen generates the synthetic workloads that stand in for the
// paper's real datasets, which are not redistributable here:
//
//   - TaxiTrips ⇢ NY yellow-taxi pick-up/drop-off pairs (NYT),
//   - Checkins ⇢ NY Foursquare daily check-in sequences (NYF),
//   - GPSTraces ⇢ Beijing Geolife GPS traces (BJG),
//   - BusRoutes ⇢ NY / Beijing bus-route networks (facilities).
//
// Every generator is deterministic in its seed. The city model is a
// Zipf-weighted mixture of Gaussian hotspots over a city-scale extent
// plus a uniform background — reproducing the spatial skew (many
// co-located trajectory endpoints) that drives the TQ-tree's behaviour.
// See DESIGN.md §4 for the substitution rationale.
package datagen

import (
	"math"
	"math/rand"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Hotspot is one Gaussian activity center of a city.
type Hotspot struct {
	Center geo.Point
	Sigma  float64 // spread in meters
	Weight float64 // relative sampling weight
}

// City is a synthetic city model: a planar extent (meters) with weighted
// hotspots.
type City struct {
	Bounds     geo.Rect
	Hotspots   []Hotspot
	Background float64 // probability of a uniform background sample
	cum        []float64
}

// NewCity builds a city with n Zipf-weighted hotspots placed uniformly at
// random inside bounds. The same seed always yields the same city.
func NewCity(bounds geo.Rect, n int, seed int64) *City {
	rng := rand.New(rand.NewSource(seed))
	c := &City{Bounds: bounds, Background: 0.1}
	minDim := math.Min(bounds.Width(), bounds.Height())
	for i := 0; i < n; i++ {
		c.Hotspots = append(c.Hotspots, Hotspot{
			Center: c.uniform(rng),
			Sigma:  minDim * (0.005 + rng.Float64()*0.02),
			Weight: 1 / math.Pow(float64(i+1), 0.8), // Zipf-ish skew
		})
	}
	c.finalize()
	return c
}

// NewYork returns the synthetic stand-in for the New York extent used by
// the NYT/NYF datasets: ~30 km × 40 km with 40 hotspots.
func NewYork() *City {
	return NewCity(geo.Rect{MinX: 0, MinY: 0, MaxX: 30000, MaxY: 40000}, 40, 1001)
}

// Beijing returns the synthetic stand-in for the Beijing extent used by
// the BJG dataset: ~40 km × 40 km with 50 hotspots.
func Beijing() *City {
	return NewCity(geo.Rect{MinX: 0, MinY: 0, MaxX: 40000, MaxY: 40000}, 50, 2002)
}

func (c *City) finalize() {
	c.cum = make([]float64, len(c.Hotspots))
	var sum float64
	for i, h := range c.Hotspots {
		sum += h.Weight
		c.cum[i] = sum
	}
}

func (c *City) uniform(rng *rand.Rand) geo.Point {
	return geo.Pt(
		c.Bounds.MinX+rng.Float64()*c.Bounds.Width(),
		c.Bounds.MinY+rng.Float64()*c.Bounds.Height(),
	)
}

// Sample draws a point from the hotspot mixture (or background).
func (c *City) Sample(rng *rand.Rand) geo.Point {
	if len(c.Hotspots) == 0 || rng.Float64() < c.Background {
		return c.uniform(rng)
	}
	total := c.cum[len(c.cum)-1]
	r := rng.Float64() * total
	lo, hi := 0, len(c.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if c.cum[mid] < r {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h := c.Hotspots[lo]
	return c.clamp(geo.Pt(
		h.Center.X+rng.NormFloat64()*h.Sigma,
		h.Center.Y+rng.NormFloat64()*h.Sigma,
	))
}

func (c *City) clamp(p geo.Point) geo.Point {
	if p.X < c.Bounds.MinX {
		p.X = c.Bounds.MinX
	}
	if p.X > c.Bounds.MaxX {
		p.X = c.Bounds.MaxX
	}
	if p.Y < c.Bounds.MinY {
		p.Y = c.Bounds.MinY
	}
	if p.Y > c.Bounds.MaxY {
		p.Y = c.Bounds.MaxY
	}
	return p
}

// TaxiTrips generates n point-to-point trips (the NYT stand-in). Origins
// come from the hotspot mixture; destinations are displaced by a
// log-normal trip distance (median ≈ 2.2 km, matching the NYC yellow-taxi
// distance distribution) in a uniform direction, with a small fraction of
// long hotspot-to-hotspot trips. Short trips are what lets the TQ-tree
// store most entries deep in the hierarchy, as with the real data.
//
// The trips are one trajectory.Corpus, the same few allocations whatever
// n: the points in one arena of exactly 2n. Every trip shares the header
// slab and the arena, so holding any one keeps the whole corpus
// reachable.
func TaxiTrips(c *City, n int, seed int64) []*trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	corpus := trajectory.NewCorpus(n, 2*n)
	const (
		medianTrip = 2200.0 // meters
		sigmaTrip  = 0.7    // log-space spread
	)
	for i := 0; i < n; i++ {
		src := c.Sample(rng)
		var dst geo.Point
		if rng.Float64() < 0.1 {
			// Occasional long cross-town trip to another hotspot.
			dst = c.Sample(rng)
		} else {
			dist := medianTrip * math.Exp(rng.NormFloat64()*sigmaTrip)
			dir := rng.Float64() * 2 * math.Pi
			dst = c.clamp(geo.Pt(
				src.X+math.Cos(dir)*dist,
				src.Y+math.Sin(dir)*dist,
			))
		}
		if src == dst {
			dst = c.clamp(dst.Add(50+rng.Float64()*100, 50+rng.Float64()*100))
		}
		pts := corpus.Points(2)
		pts[0], pts[1] = src, dst
		mustAdd(corpus, i, pts)
	}
	return corpus.Trajectories()
}

// mustAdd adds trajectory i over pts to corpus; generated geometry is
// always valid.
func mustAdd(corpus *trajectory.Corpus, i int, pts []geo.Point) {
	if err := corpus.Add(trajectory.ID(i), pts); err != nil {
		panic(err)
	}
}

// Checkins generates n multipoint daily check-in sequences (the NYF
// stand-in): 2..maxPts stops hopping between nearby POIs. The sequences
// are one trajectory.Corpus, their points in 2^16-point arena chunks; as
// with TaxiTrips, holding any one keeps the whole corpus reachable.
func Checkins(c *City, n, maxPts int, seed int64) []*trajectory.Trajectory {
	if maxPts < 2 {
		maxPts = 2
	}
	rng := rand.New(rand.NewSource(seed))
	corpus := trajectory.NewCorpus(n, 0)
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(maxPts-1)
		pts := corpus.Points(k)
		pts[0] = c.Sample(rng)
		for j := 1; j < k; j++ {
			// Next check-in: usually near the previous one (daily
			// check-ins are neighborhood-scale), occasionally a jump to
			// another hotspot.
			if rng.Float64() < 0.15 {
				pts[j] = c.Sample(rng)
			} else {
				pts[j] = c.clamp(geo.Pt(
					pts[j-1].X+rng.NormFloat64()*900,
					pts[j-1].Y+rng.NormFloat64()*900,
				))
			}
		}
		mustAdd(corpus, i, pts)
	}
	return corpus.Trajectories()
}

// GPSTraces generates n long correlated-random-walk traces (the BJG
// stand-in): minPts..maxPts points with persistent heading. The traces
// are one trajectory.Corpus, their points in 2^16-point arena chunks; as
// with TaxiTrips, holding any one keeps the whole corpus reachable.
func GPSTraces(c *City, n, minPts, maxPts int, seed int64) []*trajectory.Trajectory {
	if minPts < 2 {
		minPts = 2
	}
	if maxPts < minPts {
		maxPts = minPts
	}
	rng := rand.New(rand.NewSource(seed))
	corpus := trajectory.NewCorpus(n, 0)
	for i := 0; i < n; i++ {
		k := minPts + rng.Intn(maxPts-minPts+1)
		pts := corpus.Points(k)
		pts[0] = c.Sample(rng)
		heading := rng.Float64() * 2 * math.Pi
		for j := 1; j < k; j++ {
			heading += rng.NormFloat64() * 0.4
			step := 200 + rng.Float64()*400
			pts[j] = c.clamp(geo.Pt(
				pts[j-1].X+math.Cos(heading)*step,
				pts[j-1].Y+math.Sin(heading)*step,
			))
		}
		mustAdd(corpus, i, pts)
	}
	return corpus.Trajectories()
}

// BusRoutes generates nRoutes facility trajectories with stopsPerRoute
// stops each: a route starts at a hotspot, heads toward a sequence of
// other hotspots, and places stops at roughly 400 m spacing with jitter —
// mimicking a bus network threading activity centers.
func BusRoutes(c *City, nRoutes, stopsPerRoute int, seed int64) []*trajectory.Facility {
	if stopsPerRoute < 1 {
		stopsPerRoute = 1
	}
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Facility, nRoutes)
	for i := 0; i < nRoutes; i++ {
		out[i] = trajectory.MustNewFacility(trajectory.ID(i), busRoute(c, stopsPerRoute, rng))
	}
	return out
}

func busRoute(c *City, stops int, rng *rand.Rand) []geo.Point {
	const spacing = 400.0
	pts := make([]geo.Point, 0, stops)
	cur := c.Sample(rng)
	target := c.Sample(rng)
	pts = append(pts, cur)
	for len(pts) < stops {
		// Retarget when close, so long routes wander between hotspots.
		if cur.Dist(target) < 2*spacing {
			target = c.Sample(rng)
		}
		dx, dy := target.X-cur.X, target.Y-cur.Y
		d := math.Hypot(dx, dy)
		if d == 0 {
			target = c.uniform(rng)
			continue
		}
		step := spacing * (0.8 + rng.Float64()*0.4)
		cur = c.clamp(geo.Pt(
			cur.X+dx/d*step+rng.NormFloat64()*40,
			cur.Y+dy/d*step+rng.NormFloat64()*40,
		))
		pts = append(pts, cur)
	}
	return pts
}

// Paper-scale dataset cardinalities (Tables I and II). The harness scales
// these down with a fraction for time-boxed runs.
const (
	// NYTHalfDay .. NYT3Days are the taxi-trip axis values of Fig 6a/7a.
	NYTHalfDay = 203308
	NYT1Day    = 357139
	NYT2Days   = 697796
	NYT3Days   = 1032637
	// NYFTrajectories is the Foursquare check-in trajectory count.
	NYFTrajectories = 212751
	// BJGTrajectories is the Geolife trace count.
	BJGTrajectories = 30266
	// NYRoutes/NYStops and BJRoutes/BJStops are the facility datasets of
	// Table I.
	NYRoutes = 2024
	NYStops  = 16999
	BJRoutes = 1842
	BJStops  = 21489
)

// DefaultPsi is the distance threshold ψ used by the experiments: 300 m,
// a walkable access distance to a stop (the paper does not publish its
// value).
const DefaultPsi = 300.0
