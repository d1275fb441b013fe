package trajcover

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// reachCase is a stop, a threshold ψ and a point Dist2 serves from the
// stop although it lies west of the rounded s.X − ψ: the edge case a
// ψ-expansion prefilter must not reject.
type reachCase struct {
	stop, far Point
	psi       float64
}

// findReachCase searches (stop, ψ) pairs at magnitude mag for one whose
// farthest served point due west lies below fl(s.X − ψ), walking from
// there with math.Nextafter while Dist2 still serves.
func findReachCase(t *testing.T, rng *rand.Rand, mag float64) reachCase {
	t.Helper()
	for trial := 0; trial < 100000; trial++ {
		s := Pt((rng.Float64()-0.5)*mag, (rng.Float64()-0.5)*mag)
		psi := (0.05 + rng.Float64()) * mag / 4
		psi2 := psi * psi
		edge := s.X - psi
		p := Pt(math.Nextafter(edge, math.Inf(-1)), s.Y)
		if p.Dist2(s) > psi2 {
			continue
		}
		for q := Pt(math.Nextafter(p.X, math.Inf(-1)), s.Y); q.Dist2(s) <= psi2; q.X = math.Nextafter(q.X, math.Inf(-1)) {
			p = q
		}
		return reachCase{stop: s, far: p, psi: psi}
	}
	t.Fatalf("no reach case at magnitude %g", mag)
	return reachCase{}
}

// TestPsiReachEdge: a user whose ends Dist2 places exactly ψ from a stop
// — a few ulps past the exact expansion — is served by every index the
// way the brute-force scan serves it: through ServiceValue, TopK,
// ServedUsers and MaxCoverage, on both variants and orderings, one shard
// and three, built, frozen and churned.
func TestPsiReachEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(2018))
	for _, mag := range []float64{10, 1e3, 1e5, 1e7} {
		c := findReachCase(t, rng, mag)
		// Both ends of the edge user sit at the ψ-edge of a stop, one of two
		// stops on a north-south line, so no end lies in the exact
		// expansion of the route's stops.
		north := c.stop.Y + 3*c.psi
		route := []Point{c.stop, Pt(c.stop.X, north)}
		edgeUser := trajectory.MustNew(1, []Point{c.far, Pt(c.far.X, north)})
		users := []*Trajectory{edgeUser}
		for id := ID(2); id < 120; id++ {
			a := Pt(c.stop.X+(rng.Float64()-0.5)*4*c.psi, c.stop.Y+(rng.Float64()-0.5)*4*c.psi)
			b := Pt(a.X+(rng.Float64()-0.5)*c.psi, a.Y+(rng.Float64()-0.5)*c.psi)
			users = append(users, trajectory.MustNew(id, []Point{a, b}))
		}
		facilities := []*Facility{trajectory.MustNewFacility(10, route)}
		for id := ID(11); id < 15; id++ {
			stops := make([]Point, 3)
			for i := range stops {
				stops[i] = Pt(c.stop.X+(rng.Float64()-0.5)*4*c.psi, c.stop.Y+(rng.Float64()-0.5)*4*c.psi)
			}
			facilities = append(facilities, trajectory.MustNewFacility(id, stops))
		}
		q := Query{Scenario: Binary, Psi: c.psi}
		// served is the brute-force scan: the users the stops serve.
		served := func(stops []Point) []ID {
			var ids []ID
			for _, u := range users {
				if service.Value(service.Binary, u, stops, c.psi) > 0 {
					ids = append(ids, u.ID)
				}
			}
			return ids
		}
		if !slices.Contains(served(facilities[0].Stops), edgeUser.ID) {
			t.Fatalf("magnitude %g: the brute-force scan does not serve the edge user", mag)
		}
		want := make([]float64, len(facilities))
		for i, f := range facilities {
			want[i] = float64(len(served(f.Stops)))
		}
		for _, variant := range []Variant{TwoPoint, FullTrajectory} {
			for _, ordering := range []Ordering{BasicOrdering, ZOrdering} {
				for _, fl := range allFlavorsWith(t, users, IndexOptions{Variant: variant, Ordering: ordering}, 3) {
					for i, f := range facilities {
						v, err := fl.ServiceValue(f, q)
						if err != nil || v != want[i] {
							t.Fatalf("magnitude %g %v/%v %s: ServiceValue(%d) = %v, %v; brute force %v", mag, variant, ordering, fl.name, f.ID, v, err, want[i])
						}
					}
					top, err := fl.TopK(facilities, len(facilities), q)
					if err != nil || len(top) != len(facilities) {
						t.Fatalf("magnitude %g %v/%v %s: TopK = %d results, %v", mag, variant, ordering, fl.name, len(top), err)
					}
					for _, r := range top {
						if i := slices.Index(facilities, r.Facility); i < 0 || r.Service != want[i] {
							t.Fatalf("magnitude %g %v/%v %s: TopK ranks %d at %v", mag, variant, ordering, fl.name, r.Facility.ID, r.Service)
						}
					}
					su, err := fl.ServedUsers(facilities[0], q)
					if err != nil {
						t.Fatal(err)
					}
					var got []ID
					for _, u := range su {
						got = append(got, u.User)
					}
					slices.Sort(got)
					if !slices.Equal(got, served(facilities[0].Stops)) {
						t.Fatalf("magnitude %g %v/%v %s: ServedUsers %v, brute force %v", mag, variant, ordering, fl.name, got, served(facilities[0].Stops))
					}
					res, err := fl.MaxCoverage(facilities, len(facilities), q, CoverageOptions{})
					if err != nil {
						t.Fatal(err)
					}
					// Users are served jointly: any stop of the set may serve
					// either end.
					var all []Point
					for _, f := range facilities {
						all = append(all, f.Stops...)
					}
					if n := len(served(all)); res.Value != float64(n) || res.UsersServed != n {
						t.Fatalf("magnitude %g %v/%v %s: MaxCoverage value %v, %d users; brute force %d", mag, variant, ordering, fl.name, res.Value, res.UsersServed, n)
					}
				}
			}
		}
	}
}
