package maxcov

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

var testBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

func makeUsers(n int, seed int64) *trajectory.Set { return makeTrips(n, 2, seed) }

// makeTrips generates n trips of 2..maxPts points, each point a step of
// about 150 from the one before.
func makeTrips(n, maxPts int, seed int64) *trajectory.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Trajectory, n)
	for i := range out {
		pts := []geo.Point{geo.Pt(rng.Float64()*1000, rng.Float64()*1000)}
		for len(pts) < 2 || len(pts) < maxPts && rng.Intn(2) == 0 {
			last := pts[len(pts)-1]
			pts = append(pts, geo.Pt(clampF(last.X+rng.NormFloat64()*150, 0, 1000), clampF(last.Y+rng.NormFloat64()*150, 0, 1000)))
		}
		out[i] = trajectory.MustNew(trajectory.ID(i), pts)
	}
	return trajectory.MustNewSet(out)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func makeFacilities(n, stops int, seed int64) []*trajectory.Facility {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Facility, n)
	for i := range out {
		ax, ay := rng.Float64()*1000, rng.Float64()*1000
		dx, dy := rng.NormFloat64(), rng.NormFloat64()
		pts := make([]geo.Point, stops)
		for j := range pts {
			t := float64(j) * 40
			pts[j] = geo.Pt(clampF(ax+dx*t, 0, 1000), clampF(ay+dy*t, 0, 1000))
		}
		out[i] = trajectory.MustNewFacility(trajectory.ID(i), pts)
	}
	return out
}

// engineFor indexes users in one TwoPoint frozen shard and returns it as
// the source every public index type hands its solvers.
func engineFor(t *testing.T, users *trajectory.Set, ordering tqtree.Ordering) *shard.Source {
	return sourceFor(t, users, tqtree.TwoPoint, ordering, 1)
}

// sourceFor indexes users in the given number of frozen shards.
func sourceFor(t *testing.T, users *trajectory.Set, v tqtree.Variant, ordering tqtree.Ordering, shards int) *shard.Source {
	t.Helper()
	f, err := shard.BuildFrozen(users.All, shard.Options{Shards: shards, Tree: tqtree.Options{
		Variant: v, Ordering: ordering, Beta: 8, Bounds: testBounds,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return f.Source()
}

var params = query.Params{Scenario: service.Binary, Psi: 50}

func TestNonSubmodularWitness(t *testing.T) {
	// Reproduce the paper's Lemma 1 construction: user u's source is
	// covered by facility b (in B) but by nothing in A; u's destination
	// is covered only by facility x. Then adding x to B gains service
	// while adding x to A (⊆ B) gains nothing — violating diminishing
	// returns, so the objective is non-submodular.
	u := trajectory.MustNew(1, []geo.Point{geo.Pt(100, 100), geo.Pt(900, 900)})
	users := trajectory.MustNewSet([]*trajectory.Trajectory{u})

	fa := trajectory.MustNewFacility(1, []geo.Point{geo.Pt(500, 500)}) // covers nothing
	fb := trajectory.MustNewFacility(2, []geo.Point{geo.Pt(100, 105)}) // covers source
	fx := trajectory.MustNewFacility(3, []geo.Point{geo.Pt(900, 905)}) // covers destination

	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng
	cache, err := newCovCache(src, []*trajectory.Facility{fa, fb, fx}, params)
	if err != nil {
		t.Fatal(err)
	}
	val := func(idx ...int) float64 { return cache.value(idx) }
	const a, b, x = 0, 1, 2

	gainA := val(a, x) - val(a)       // A = {fa}
	gainB := val(a, b, x) - val(a, b) // B = {fa, fb} ⊇ A
	if !(gainB > gainA) {
		t.Fatalf("submodularity not violated: gainA=%v gainB=%v (need gainB > gainA)", gainA, gainB)
	}
	if gainA != 0 || gainB != 1 {
		t.Errorf("expected gains 0 and 1, got %v and %v", gainA, gainB)
	}
}

func TestGreedyMatchesHandRolledReference(t *testing.T) {
	users := makeUsers(300, 1)
	facilities := makeFacilities(20, 6, 2)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng

	got, err := Greedy(src, facilities, 4, params)
	if err != nil {
		t.Fatal(err)
	}

	// Hand-rolled reference greedy over brute-force coverage masks.
	type facCov struct {
		f   *trajectory.Facility
		cov map[trajectory.ID]service.Mask
	}
	covs := make([]facCov, len(facilities))
	for i, f := range facilities {
		c := map[trajectory.ID]service.Mask{}
		for _, u := range users.All {
			m := service.MaskOf(u, f.Stops, params.Psi)
			if m.Count() > 0 {
				c[u.ID] = m
			}
		}
		covs[i] = facCov{f, c}
	}
	value := func(sel []facCov) float64 {
		merged := map[trajectory.ID]service.Mask{}
		for _, fc := range sel {
			for id, m := range fc.cov {
				if merged[id] == nil {
					merged[id] = service.NewMask(len(m) * 64)
				}
				merged[id].Or(m)
			}
		}
		var v float64
		for id, m := range merged {
			v += service.ValueFromMask(service.Binary, users.ByID(id), m)
		}
		return v
	}
	var sel []facCov
	remaining := append([]facCov(nil), covs...)
	for len(sel) < 4 {
		bestI, bestV := -1, -1.0
		base := value(sel)
		for i, fc := range remaining {
			v := value(append(sel, fc)) - base
			if v > bestV {
				bestV, bestI = v, i
			}
		}
		sel = append(sel, remaining[bestI])
		remaining = append(remaining[:bestI], remaining[bestI+1:]...)
	}
	want := value(sel)
	if math.Abs(got.Value-want) > 1e-9 {
		t.Fatalf("greedy value %v, reference %v", got.Value, want)
	}
	for i := range sel {
		if got.Facilities[i].ID != sel[i].f.ID {
			t.Errorf("selection order differs at %d: %d vs %d", i, got.Facilities[i].ID, sel[i].f.ID)
		}
	}
}

// TestGreedyBaselineAndTQAgree: the greedy, exact and two-step solvers
// answer alike over TQ(B), TQ(Z) at one shard and three, and the baseline
// (the two-step greedy over the indexes only: the baseline has no exact
// pass to rank by), under every variant and scenario the paper pairs:
// the same picks and users served, and values equal — bit for bit under
// Binary, to 1e-9 relative otherwise.
func TestGreedyBaselineAndTQAgree(t *testing.T) {
	cfgs := []struct {
		v  tqtree.Variant
		sc service.Scenario
	}{
		{tqtree.TwoPoint, service.Binary},
		{tqtree.Segmented, service.Binary}, {tqtree.Segmented, service.PointCount}, {tqtree.Segmented, service.Length},
		{tqtree.FullTrajectory, service.PointCount}, {tqtree.FullTrajectory, service.Length},
	}
	for _, c := range cfgs {
		maxPts := 5
		if c.v == tqtree.TwoPoint {
			maxPts = 2
		}
		users := makeTrips(400, maxPts, 3)
		facilities := makeFacilities(25, 6, 4)
		p := query.Params{Scenario: c.sc, Psi: 50}
		name := c.v.String() + "/" + c.sc.String()
		srcs := map[string]CoverageSource{
			"TQ(B)":    sourceFor(t, users, c.v, tqtree.Basic, 1),
			"TQ(Z)":    sourceFor(t, users, c.v, tqtree.ZOrder, 1),
			"TQ(Z)/3":  sourceFor(t, users, c.v, tqtree.ZOrder, 3),
			"baseline": query.NewBaseline(users, c.v),
		}
		solvers := map[string]func(src CoverageSource) (Result, error){
			"greedy":  func(src CoverageSource) (Result, error) { return Greedy(src, facilities, 5, p) },
			"exact":   func(src CoverageSource) (Result, error) { return Exact(src, facilities[:10], 3, p) },
			"twostep": func(src CoverageSource) (Result, error) { return TwoStep(src.(*shard.Source), facilities, 5, 0, p) },
		}
		for solver, solve := range solvers {
			want, err := solve(srcs["TQ(Z)"])
			if err != nil {
				t.Fatal(err)
			}
			if want.UsersServed == 0 {
				t.Fatalf("%s %s serves no one", name, solver)
			}
			for sname, src := range srcs {
				if _, index := src.(*shard.Source); solver == "twostep" && !index {
					continue
				}
				got, err := solve(src)
				if err != nil {
					t.Fatal(err)
				}
				same := got.Value == want.Value || c.sc != service.Binary && math.Abs(got.Value-want.Value) <= 1e-9*want.Value
				if !same || got.UsersServed != want.UsersServed || !slices.Equal(got.Facilities, want.Facilities) {
					t.Fatalf("%s %s over %s: %v, %v users, value %v; TQ(Z) %v, %v users, value %v", name, solver, sname,
						ids(got.Facilities), got.UsersServed, got.Value, ids(want.Facilities), want.UsersServed, want.Value)
				}
			}
		}
	}
}

func ids(fs []*trajectory.Facility) []trajectory.ID {
	out := make([]trajectory.ID, len(fs))
	for i, f := range fs {
		out[i] = f.ID
	}
	return out
}

// TestSolversReproducible: every solver reports the same picks and the
// same Value bits on every run — the fractional gains sum in the table's
// row order, not in a map's.
func TestSolversReproducible(t *testing.T) {
	users := makeTrips(300, 6, 60)
	facilities := makeFacilities(14, 6, 61)
	for _, v := range []tqtree.Variant{tqtree.Segmented, tqtree.FullTrajectory} {
		src := sourceFor(t, users, v, tqtree.ZOrder, 2)
		for _, sc := range []service.Scenario{service.PointCount, service.Length} {
			p := query.Params{Scenario: sc, Psi: 60}
			solvers := map[string]func() (Result, error){
				"greedy":  func() (Result, error) { return Greedy(src, facilities, 5, p) },
				"exact":   func() (Result, error) { return Exact(src, facilities, 3, p) },
				"genetic": func() (Result, error) { return Genetic(src, facilities, 4, p, GeneticOptions{Seed: 3}) },
				"twostep": func() (Result, error) { return TwoStep(src, facilities, 5, 0, p) },
			}
			for name, solve := range solvers {
				want, err := solve()
				if err != nil {
					t.Fatal(err)
				}
				for run := 1; run < 20; run++ {
					got, err := solve()
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(got.Value) != math.Float64bits(want.Value) || !slices.Equal(got.Facilities, want.Facilities) {
						t.Fatalf("%v/%v %s run %d: %v value %v; run 0: %v value %v", v, sc, name, run,
							ids(got.Facilities), got.Value, ids(want.Facilities), want.Value)
					}
				}
			}
		}
	}
}

func TestExactSmallInstance(t *testing.T) {
	users := makeUsers(150, 5)
	facilities := makeFacilities(10, 5, 6)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng

	exact, err := Exact(src, facilities, 3, params)
	if err != nil {
		t.Fatal(err)
	}
	// Exact must dominate greedy and genetic.
	greedy, err := Greedy(src, facilities, 3, params)
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Value > exact.Value+1e-9 {
		t.Fatalf("greedy %v beat exact %v", greedy.Value, exact.Value)
	}
	gen, err := Genetic(src, facilities, 3, params, GeneticOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if gen.Value > exact.Value+1e-9 {
		t.Fatalf("genetic %v beat exact %v", gen.Value, exact.Value)
	}
	if len(exact.Facilities) != 3 {
		t.Errorf("exact returned %d facilities", len(exact.Facilities))
	}
}

func TestExactMatchesBruteForceTinyInstance(t *testing.T) {
	// Cross-check Exact against a literal enumeration on a 6-facility
	// instance.
	users := makeUsers(100, 8)
	facilities := makeFacilities(6, 4, 9)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng
	cache, err := newCovCache(src, facilities, params)
	if err != nil {
		t.Fatal(err)
	}
	bestVal := -1.0
	n := len(facilities)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			v := cache.value([]int{a, b})
			if v > bestVal {
				bestVal = v
			}
		}
	}
	exact, err := Exact(src, facilities, 2, params)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Value-bestVal) > 1e-9 {
		t.Fatalf("Exact = %v, brute force = %v", exact.Value, bestVal)
	}
}

func TestTwoStepGreedyCloseToFullGreedy(t *testing.T) {
	users := makeUsers(500, 10)
	facilities := makeFacilities(40, 6, 11)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng

	full, err := Greedy(src, facilities, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	two, err := TwoStep(eng, facilities, 4, 0, params)
	if err != nil {
		t.Fatal(err)
	}
	// The forwarding names the repository benchmark compiles against run
	// the same solve.
	tree, err := tqtree.Build(users.All, tqtree.Options{Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	if fz, err := tqtree.Freeze(tree); err != nil || fz != tree {
		t.Fatalf("Freeze = %p, %v; want the index itself", fz, err)
	}
	if ptr, err := TwoStepGreedy(query.NewEngine(tree, users), facilities, 4, 0, params); err != nil || !reflect.DeepEqual(ptr, two) {
		t.Fatalf("TwoStepGreedy = %+v, %v; TwoStep %+v", ptr, err, two)
	}
	if two.Value > full.Value+1e-9 {
		// Pruning can only remove candidates; the two-step result is a
		// greedy over a subset, whose greedy value can exceed the full
		// greedy only through tie-order differences — tolerate a tiny
		// margin but flag real excess, which would indicate a bug.
		t.Logf("two-step %v exceeded full greedy %v (tie-order artifact)", two.Value, full.Value)
	}
	if two.Value < 0.5*full.Value {
		t.Fatalf("two-step value %v collapsed versus full greedy %v", two.Value, full.Value)
	}
	if len(two.Facilities) != 4 {
		t.Errorf("two-step returned %d facilities", len(two.Facilities))
	}
}

func TestTwoStepKPrimeAtLeastK(t *testing.T) {
	users := makeUsers(100, 12)
	facilities := makeFacilities(10, 4, 13)
	eng := engineFor(t, users, tqtree.ZOrder)
	// kPrime below k must be clamped, not error.
	res, err := TwoStep(eng, facilities, 5, 2, params)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Facilities) != 5 {
		t.Errorf("got %d facilities, want 5", len(res.Facilities))
	}
}

func TestGeneticBeatsRandomAndIsDeterministic(t *testing.T) {
	users := makeUsers(400, 14)
	facilities := makeFacilities(30, 6, 15)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng
	cache, err := newCovCache(src, facilities, params)
	if err != nil {
		t.Fatal(err)
	}

	gen1, err := Genetic(src, facilities, 5, params, GeneticOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	gen2, err := Genetic(src, facilities, 5, params, GeneticOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if gen1.Value != gen2.Value {
		t.Errorf("genetic not deterministic: %v vs %v", gen1.Value, gen2.Value)
	}

	// Average random subset value must not beat the genetic result.
	rng := rand.New(rand.NewSource(16))
	var avg float64
	const trials = 50
	for i := 0; i < trials; i++ {
		avg += cache.value(rng.Perm(len(facilities))[:5])
	}
	avg /= trials
	if gen1.Value < avg {
		t.Errorf("genetic %v below average random %v", gen1.Value, avg)
	}
}

func TestGreedyResultValueMatchesSubsetValue(t *testing.T) {
	users := makeUsers(300, 17)
	facilities := makeFacilities(15, 5, 18)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng
	res, err := Greedy(src, facilities, 4, params)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := newCovCache(src, facilities, params)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(res.Facilities))
	for i, f := range res.Facilities {
		idx[i] = slices.Index(facilities, f)
	}
	if v := cache.value(idx); math.Abs(v-res.Value) > 1e-9 {
		t.Fatalf("incremental value %v != recomputed %v", res.Value, v)
	}
}

func TestApproximationRatioReasonable(t *testing.T) {
	// On random instances the paper observes greedy ratios >= 0.9; use a
	// conservative 0.8 floor to keep the test robust.
	for seed := int64(0); seed < 3; seed++ {
		users := makeUsers(200, 20+seed)
		facilities := makeFacilities(12, 5, 30+seed)
		eng := engineFor(t, users, tqtree.ZOrder)
		src := eng
		exact, err := Exact(src, facilities, 3, params)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Value == 0 {
			continue
		}
		greedy, err := TwoStep(eng, facilities, 3, 0, params)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := greedy.Value / exact.Value; ratio < 0.8 {
			t.Errorf("seed %d: approximation ratio %v < 0.8", seed, ratio)
		}
	}
}

func TestEdgeCases(t *testing.T) {
	users := makeUsers(50, 40)
	facilities := makeFacilities(5, 4, 41)
	eng := engineFor(t, users, tqtree.ZOrder)
	src := eng

	if r, err := Greedy(src, facilities, 0, params); err != nil || len(r.Facilities) != 0 {
		t.Errorf("k=0: %+v, %v", r, err)
	}
	if r, err := Greedy(src, nil, 3, params); err != nil || len(r.Facilities) != 0 {
		t.Errorf("no facilities: %+v, %v", r, err)
	}
	r, err := Greedy(src, facilities, 10, params)
	if err != nil || len(r.Facilities) != 5 {
		t.Errorf("k>n: got %d facilities, %v", len(r.Facilities), err)
	}
	if _, err := Exact(src, makeFacilities(100, 3, 42), 50, params); err == nil {
		t.Error("Exact accepted a combinatorial blow-up")
	}
}

func TestBinaryFastPathMatchesGeneralPath(t *testing.T) {
	users := makeUsers(300, 50)
	facilities := makeFacilities(12, 5, 51)
	for _, shards := range []int{1, 3} {
		src := sourceFor(t, users, tqtree.TwoPoint, tqtree.ZOrder, shards)
		cache, err := newCovCache(src, facilities, params)
		if err != nil {
			t.Fatal(err)
		}
		if cache.bin == nil {
			t.Fatal("binary fast path not built for Binary scenario")
		}
		general := *cache
		general.bin = nil
		rng := rand.New(rand.NewSource(52))
		for trial := 0; trial < 200; trial++ {
			idx := rng.Perm(len(facilities))[:1+rng.Intn(4)]
			fast := cache.value(idx)
			slow := general.value(idx)
			if fast != slow {
				t.Fatalf("%d shards: fast path %v != general path %v for subset %v", shards, fast, slow, idx)
			}
		}
	}
}

func TestBinomial(t *testing.T) {
	cases := []struct{ n, k, want int }{
		{5, 2, 10}, {10, 3, 120}, {6, 0, 1}, {6, 6, 1}, {4, 5, 0}, {60, 30, -1},
	}
	for _, c := range cases {
		if got := binomial(c.n, c.k); got != c.want {
			t.Errorf("binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// TestTwoStepCandidatesMatchBestFirst: step 1 of the two-step greedy is
// the served exact pass sorted and cut by query.Results; the k' facilities
// it keeps are the ones the paper's best-first search ranks first, under
// every variant and scenario.
func TestTwoStepCandidatesMatchBestFirst(t *testing.T) {
	users := makeUsers(800, 14)
	facilities := makeFacilities(40, 6, 15)
	kPrime := DefaultCandidateSize(5, len(facilities))
	for _, v := range []tqtree.Variant{tqtree.TwoPoint, tqtree.Segmented, tqtree.FullTrajectory} {
		fz, err := tqtree.BuildFrozen(users.All, tqtree.Options{Variant: v, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds})
		if err != nil {
			t.Fatal(err)
		}
		eng := query.NewFrozenEngine(fz, nil)
		f, err := shard.FrozenOf([]*tqtree.Frozen{fz}, shard.Hash{})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []service.Scenario{service.Binary, service.PointCount, service.Length} {
			p := query.Params{Scenario: sc, Psi: 50}
			vals, err := f.Source().ServiceValues(facilities, p)
			if err != nil {
				t.Fatal(err)
			}
			best, _, err := eng.TopK(facilities, kPrime, p)
			if err != nil {
				t.Fatal(err)
			}
			exact := query.Results(facilities, vals, kPrime)
			if best[len(best)-1].Service == 0 {
				t.Fatalf("%v/%v: the cut falls among unserved facilities", v, sc)
			}
			ids := func(rs []query.Result) []trajectory.ID {
				out := make([]trajectory.ID, len(rs))
				for i, r := range rs {
					out[i] = r.Facility.ID
				}
				slices.Sort(out)
				return out
			}
			if got, want := ids(exact), ids(best); !slices.Equal(got, want) {
				t.Fatalf("%v/%v: exact-pass candidates %v, best-first %v", v, sc, got, want)
			}
		}
	}
}
