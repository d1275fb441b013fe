package trajcover

import (
	"slices"
	"testing"

	"github.com/trajcover/trajcover/internal/service"
)

// TestBaselineMatchesBruteForceAndIndex pins the paper's BL method's own
// answers on a Binary taxi corpus: Baseline.ServiceValue is the number of
// users a brute-force scan finds served, and Baseline.MaxCoverage, under
// every algorithm, picks k facilities whose joint brute-force service is
// its value and its users served — the optimum for Exact — and, but for
// Genetic, the picks and value an Index finds (TwoStepGreedy running
// FullGreedy).
func TestBaselineMatchesBruteForceAndIndex(t *testing.T) {
	city := NewYorkCity()
	users := TaxiTrips(city, 1500, 11)
	routes := BusRoutes(city, 12, 12, 12)
	q := Query{Scenario: Binary, Psi: 600}
	served := func(stops []Point) int {
		n := 0
		for _, u := range users {
			n += int(service.Value(service.Binary, u, stops, q.Psi))
		}
		return n
	}
	joint := func(fs []*Facility) int {
		var stops []Point
		for _, f := range fs {
			stops = append(stops, f.Stops...)
		}
		return served(stops)
	}
	bl, err := NewBaseline(users, TwoPoint)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := NewIndex(users, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}

	nonzero := 0
	for _, f := range routes {
		want := served(f.Stops)
		got, err := bl.ServiceValue(f, q)
		if err != nil || got != float64(want) {
			t.Fatalf("route %d: Baseline.ServiceValue = %v, %v; brute force %d", f.ID, got, err, want)
		}
		if iv, err := idx.ServiceValue(f, q); err != nil || iv != got {
			t.Fatalf("route %d: Index.ServiceValue = %v, %v; baseline %v", f.ID, iv, err, got)
		}
		if want > 0 {
			nonzero++
		}
	}
	if nonzero < 3 {
		t.Fatalf("only %d routes serve anyone: the corpus does not exercise the baseline", nonzero)
	}

	const k = 3
	best := 0
	for a := range routes {
		for b := a + 1; b < len(routes); b++ {
			for c := b + 1; c < len(routes); c++ {
				best = max(best, joint([]*Facility{routes[a], routes[b], routes[c]}))
			}
		}
	}
	ids := func(fs []*Facility) []ID {
		out := make([]ID, len(fs))
		for i, f := range fs {
			out[i] = f.ID
		}
		return out
	}
	for _, alg := range []CoverageAlgorithm{TwoStepGreedy, FullGreedy, Genetic, Exact} {
		opts := CoverageOptions{Algorithm: alg, Genetic: GeneticOptions{Seed: 5}}
		res, err := bl.MaxCoverage(routes, k, q, opts)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		n := joint(res.Facilities)
		if len(res.Facilities) != k || res.Value != float64(n) || res.UsersServed != n {
			t.Fatalf("%v: %d picks %v, value %v, %d users served; brute force over the picks %d",
				alg, len(res.Facilities), ids(res.Facilities), res.Value, res.UsersServed, n)
		}
		if alg == Exact && n != best {
			t.Fatalf("Exact serves %d users, the best %d-subset %d", n, k, best)
		}
		if alg == Genetic {
			continue // its search order follows the coverage table's user slots
		}
		ref := alg
		if ref == TwoStepGreedy {
			ref = FullGreedy // what the baseline runs for it
		}
		want, err := idx.MaxCoverage(routes, k, q, CoverageOptions{Algorithm: ref})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ids(res.Facilities), ids(want.Facilities)) || res.Value != want.Value || res.UsersServed != want.UsersServed {
			t.Fatalf("%v: baseline picks %v (value %v), Index %v (value %v)", alg, ids(res.Facilities), res.Value, ids(want.Facilities), want.Value)
		}
	}
}
