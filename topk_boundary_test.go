package trajcover

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"testing"
)

// boundaryTrips is one seeded corpus of 300 short trips of two to four
// points (so PointCount and Length sum thirds and quarters, whose float
// sums depend on their order). Uniform spreads them over the map; skewed
// packs all but a handful into the south-west corner and the rest into
// the north-east one, so two quadrants stay empty and the values are far
// apart — the corpus shape of internal/dist's
// TestFrontendThresholdBoundary.
func boundaryTrips(t *testing.T, rng *rand.Rand, skewed bool) []*Trajectory {
	t.Helper()
	clamp := func(v float64) float64 { return min(max(v, 0), 1000) }
	users := make([]*Trajectory, 300)
	for i := range users {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		if skewed {
			x, y = 40+rng.Float64()*120, 40+rng.Float64()*120
			if i%50 == 49 {
				x, y = 800+rng.Float64()*150, 800+rng.Float64()*150
			}
		}
		pts := []Point{Pt(x, y)}
		for j := 1 + rng.Intn(3); j > 0; j-- {
			x, y = clamp(x+rng.NormFloat64()*5), clamp(y+rng.NormFloat64()*5)
			pts = append(pts, Pt(x, y))
		}
		u, err := NewTrajectory(ID(i), pts)
		if err != nil {
			t.Fatal(err)
		}
		users[i] = u
	}
	return users
}

// boundaryRoutes is 8 routes, each present three times under different
// shuffled IDs: copies have equal exact values, so sorted by value the
// ranks come in runs of three and both k = 1 and k = 8 cut a run. Skewed
// routes are short and sit in the cluster (2), beside it (2) and among the
// far stragglers (4).
func boundaryRoutes(t *testing.T, rng *rand.Rand, skewed bool) []*Facility {
	t.Helper()
	ids := rng.Perm(24)
	var out []*Facility
	for r := 0; r < 8; r++ {
		ax, ay, stops, step := rng.Float64()*900, rng.Float64()*1000, 5, 20.0
		if skewed {
			stops, step = 2, 5
			switch {
			case r < 2:
				ax, ay = 60+rng.Float64()*60, 60+rng.Float64()*60
			case r < 4:
				ax, ay = 230+rng.Float64()*30, 230+rng.Float64()*30
			default:
				ax, ay = 820+rng.Float64()*100, 820+rng.Float64()*100
			}
		}
		var pts []Point
		for j := 0; j < stops; j++ {
			pts = append(pts, Pt(ax+float64(j)*step, min(max(ay+rng.NormFloat64()*step/2, 0), 1000)))
		}
		for c := 0; c < 3; c++ {
			f, err := NewFacility(ID(500+ids[3*r+c]), pts)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, f)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// TestTopKThresholdBoundary attacks the top-k's cut at rank k where it is
// thinnest — facilities with equal exact values on both sides of it — on
// every index type, every scenario, 1/2/4 shards, with the live types'
// delta overlays and tombstones in play. The contract: TopK is
// sort-and-cut over ServiceValues (value descending, ID ascending), and
// the reported Service is ServiceValues' bit for bit, fractional
// scenarios included, from one exact pass: the same work whatever k is.
func TestTopKThresholdBoundary(t *testing.T) {
	seeds := int64(2)
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		for _, skewed := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			users := boundaryTrips(t, rng, skewed)
			facs := boundaryRoutes(t, rng, skewed)
			n := len(facs)
			for _, shards := range []int{1, 2, 4} {
				for _, sc := range []Scenario{Binary, PointCount, Length} {
					opts := IndexOptions{Ordering: ZOrdering, Bounds: Rect{MaxX: 1000, MaxY: 1000}}
					if sc != Binary {
						opts.Variant = FullTrajectory
					}
					q := Query{Scenario: sc, Psi: 30}
					for _, fl := range allFlavorsWith(t, users, opts, shards) {
						name := fmt.Sprintf("seed %d skewed %v shards %d %v %s", seed, skewed, shards, sc, flavorName(fl))
						vals, err := fl.ServiceValues(facs, q, 1)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want := make([]Ranked, n)
						for i, f := range facs {
							want[i] = Ranked{Facility: f, Service: vals[i]}
						}
						sort.Slice(want, func(a, b int) bool {
							if want[a].Service != want[b].Service {
								return want[a].Service > want[b].Service
							}
							return want[a].Facility.ID < want[b].Facility.ID
						})
						for _, k := range []int{1, 8} {
							if want[k-1].Service != want[k].Service {
								t.Fatalf("%s: ranks %d and %d are not tied (%v, %v)", name, k, k+1, want[k-1].Service, want[k].Service)
							}
						}
						var pass QueryMetrics // the one exact pass
						for _, k := range []int{1, 8, n, n + 5} {
							got, m, err := fl.TopKWithMetrics(facs, k, q)
							if err != nil {
								t.Fatalf("%s k %d: %v", name, k, err)
							}
							par, err := fl.TopKParallel(facs, k, q, 3)
							if err != nil {
								t.Fatalf("%s k %d: %v", name, k, err)
							}
							if len(got) != min(k, n) || len(par) != len(got) {
								t.Fatalf("%s k %d: %d results (%d parallel), want %d", name, k, len(got), len(par), min(k, n))
							}
							for i := range got {
								if got[i] != want[i] || par[i] != want[i] {
									t.Fatalf("%s k %d rank %d: TopK (%d, %v), TopKParallel (%d, %v), sorted ServiceValues (%d, %v)", name, k, i,
										got[i].Facility.ID, got[i].Service, par[i].Facility.ID, par[i].Service, want[i].Facility.ID, want[i].Service)
								}
							}
							if m.Relaxations != 0 {
								t.Fatalf("%s k %d: %d best-first relaxations", name, k, m.Relaxations)
							}
							if k == 1 {
								pass = m
							} else if m != pass {
								t.Fatalf("%s: k = %d did %+v, k = 1 %+v: the work of an exact pass does not depend on k", name, k, m, pass)
							}
						}
					}
				}
			}
		}
	}
}

// TestTopKEdgeK pins what every index type answers at the edges of k: an
// empty list for k <= 0 (query.Results alone reads that as "every
// facility"), all N for k >= N, and an error for bad parameters even when
// there is nothing to rank — the same on all three entry points.
func TestTopKEdgeK(t *testing.T) {
	ny := NewYorkCity()
	routes := BusRoutes(ny, 9, 6, 52)
	q := Query{Scenario: Binary, Psi: 300}
	n := len(routes)
	for _, fl := range allFlavors(t, TaxiTrips(ny, 400, 51)) {
		name := flavorName(fl)
		all, err := fl.TopK(routes, n, q)
		if err != nil || len(all) != n {
			t.Fatalf("%s: TopK(k = N) = %d results, %v", name, len(all), err)
		}
		entries := map[string]func(fs []*Facility, k int, q Query) ([]Ranked, error){
			"TopK":         fl.TopK,
			"TopKParallel": func(fs []*Facility, k int, q Query) ([]Ranked, error) { return fl.TopKParallel(fs, k, q, 3) },
			"TopKCtx": func(fs []*Facility, k int, q Query) ([]Ranked, error) {
				return fl.TopKCtx(context.Background(), fs, k, q)
			},
		}
		for entry, topK := range entries {
			for _, k := range []int{-1, 0, 1, n, n + 1} {
				got, err := topK(routes, k, q)
				if want := all[:min(max(k, 0), n)]; err != nil || !slices.Equal(got, want) {
					t.Errorf("%s %s(k = %d) = %d results, %v; want the first %d of the full ranking", name, entry, k, len(got), err, len(want))
				}
			}
			if got, err := topK(nil, 3, q); err != nil || len(got) != 0 {
				t.Errorf("%s %s over no facilities = %v, %v", name, entry, got, err)
			}
			for _, bad := range []Query{{Scenario: Binary, Psi: -1}, {Scenario: Scenario(9), Psi: 300}} {
				for _, k := range []int{0, 3} {
					if _, err := topK(nil, k, bad); err == nil {
						t.Errorf("%s %s(k = %d) over no facilities accepted %+v", name, entry, k, bad)
					}
				}
			}
		}
	}
}
