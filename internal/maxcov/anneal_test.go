package maxcov

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func TestAnnealNeverBeatsExactAndBeatsRandom(t *testing.T) {
	users := makeUsers(300, 70)
	facilities := makeFacilities(14, 5, 71)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng

	exact, err := Exact(src, facilities, 3, params)
	if err != nil {
		t.Fatal(err)
	}
	ann, err := Anneal(src, facilities, 3, params, AnnealOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if ann.Value > exact.Value+1e-9 {
		t.Fatalf("anneal %v beat exact %v", ann.Value, exact.Value)
	}
	// Annealing must do at least as well as the average random subset.
	cache, err := newCovCache(src, facilities, params)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(72))
	var avg float64
	const trials = 40
	for i := 0; i < trials; i++ {
		perm := rng.Perm(len(facilities))[:3]
		subset := make([]*trajectory.Facility, 3)
		for j, g := range perm {
			subset[j] = facilities[g]
		}
		avg += cache.subsetValue(subset)
	}
	avg /= trials
	if ann.Value < avg {
		t.Errorf("anneal %v below average random %v", ann.Value, avg)
	}
	// With enough iterations on a small instance, annealing should land
	// close to the optimum.
	if exact.Value > 0 && ann.Value/exact.Value < 0.8 {
		t.Errorf("anneal ratio %v < 0.8", ann.Value/exact.Value)
	}
}

func TestAnnealDeterministic(t *testing.T) {
	users := makeUsers(200, 73)
	facilities := makeFacilities(20, 5, 74)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng
	a, err := Anneal(src, facilities, 4, params, AnnealOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anneal(src, facilities, 4, params, AnnealOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-b.Value) > 1e-12 {
		t.Errorf("anneal not deterministic: %v vs %v", a.Value, b.Value)
	}
}

func TestAnnealEdgeCases(t *testing.T) {
	users := makeUsers(50, 75)
	facilities := makeFacilities(4, 4, 76)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng
	if r, err := Anneal(src, facilities, 0, params, AnnealOptions{}); err != nil || len(r.Facilities) != 0 {
		t.Errorf("k=0: %+v %v", r, err)
	}
	// k == n: the subset is forced; no swaps possible.
	r, err := Anneal(src, facilities, 10, params, AnnealOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Facilities) != 4 {
		t.Errorf("k>n returned %d facilities", len(r.Facilities))
	}
	full, err := Greedy(src, facilities, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Value-full.Value) > 1e-9 {
		t.Errorf("forced full subset value %v != greedy full %v", r.Value, full.Value)
	}
}
