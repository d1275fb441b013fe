package trajcover

import (
	"errors"
	"math"
	"testing"
)

func smallWorkload(t *testing.T) ([]*Trajectory, []*Facility) {
	t.Helper()
	city := NewYorkCity()
	users := TaxiTrips(city, 2000, 1)
	routes := BusRoutes(city, 40, 16, 2)
	return users, routes
}

func TestPublicAPIEndToEnd(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 2000 {
		t.Fatalf("Len = %d", idx.Len())
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	top, err := idx.TopK(routes, 8, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 8 {
		t.Fatalf("TopK returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Service > top[i-1].Service {
			t.Fatal("TopK not sorted")
		}
	}
	// The winner's service must match a direct evaluation.
	direct, err := idx.ServiceValue(top[0].Facility, q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-top[0].Service) > 1e-9 {
		t.Fatalf("TopK service %v != direct %v", top[0].Service, direct)
	}
}

func TestPublicAPIBatchExecutor(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	vals, err := idx.ServiceValues(routes, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(routes) {
		t.Fatalf("ServiceValues returned %d values for %d routes", len(vals), len(routes))
	}
	for i, f := range routes {
		direct, err := idx.ServiceValue(f, q)
		if err != nil {
			t.Fatal(err)
		}
		if vals[i] != direct {
			t.Fatalf("route %d: batch %v != direct %v", i, vals[i], direct)
		}
	}
	want, err := idx.TopK(routes, 8, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := idx.TopKParallel(routes, 8, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("TopKParallel returned %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Facility.ID != want[i].Facility.ID || got[i].Service != want[i].Service {
			t.Fatalf("rank %d: parallel (%d, %v) != serial (%d, %v)",
				i, got[i].Facility.ID, got[i].Service, want[i].Facility.ID, want[i].Service)
		}
	}
}

func TestPublicAPIBaselineAgrees(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := NewBaseline(users, TwoPoint)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	a, err := idx.TopK(routes, 5, q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := bl.TopK(routes, 5, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i].Service-b[i].Service) > 1e-9 {
			t.Fatalf("rank %d: index %v != baseline %v", i, a[i].Service, b[i].Service)
		}
	}
}

func TestPublicAPIMaxCoverageAlgorithms(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	for _, alg := range []CoverageAlgorithm{TwoStepGreedy, FullGreedy, Genetic} {
		res, err := idx.MaxCoverage(routes, 4, q, CoverageOptions{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(res.Facilities) != 4 {
			t.Fatalf("%v returned %d facilities", alg, len(res.Facilities))
		}
		if res.Value <= 0 || res.UsersServed <= 0 {
			t.Fatalf("%v returned empty coverage: %+v", alg, res)
		}
	}
	// Exact on a small slice of routes.
	res, err := idx.MaxCoverage(routes[:8], 2, q, CoverageOptions{Algorithm: Exact})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := idx.MaxCoverage(routes[:8], 2, q, CoverageOptions{Algorithm: FullGreedy})
	if err != nil {
		t.Fatal(err)
	}
	if greedy.Value > res.Value+1e-9 {
		t.Fatalf("greedy %v beat exact %v", greedy.Value, res.Value)
	}
	if _, err := idx.MaxCoverage(routes, 2, q, CoverageOptions{Algorithm: CoverageAlgorithm(99)}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPublicAPIInsert(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users[:1000], IndexOptions{Bounds: Rect{MaxX: 30000, MaxY: 40000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[1000:] {
		if err := idx.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	if idx.Len() != 2000 {
		t.Fatalf("Len after insert = %d", idx.Len())
	}
	// Duplicate insert must fail with the typed error, on every
	// insertable type.
	sh, err := NewShardedIndex(users[:1000], ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := idx.Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	lsh, err := sh.Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []interface{ Insert(*Trajectory) error }{idx, sh, lv, lsh} {
		if err := x.Insert(users[0]); !errors.Is(err, ErrDuplicateID) {
			t.Errorf("%T: duplicate insert: err = %v, want ErrDuplicateID", x, err)
		}
	}
	// Post-insert queries must agree with a fresh index.
	fresh, err := NewIndex(users, IndexOptions{Bounds: Rect{MaxX: 30000, MaxY: 40000}})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	for _, f := range routes[:5] {
		a, err := idx.ServiceValue(f, q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := fresh.ServiceValue(f, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("facility %d: inserted %v != fresh %v", f.ID, a, b)
		}
	}
}

func TestPublicAPIMultipointScenarios(t *testing.T) {
	city := NewYorkCity()
	users := Checkins(city, 1000, 6, 3)
	routes := BusRoutes(city, 20, 24, 4)
	for _, variant := range []Variant{Segmented, FullTrajectory} {
		idx, err := NewIndex(users, IndexOptions{Variant: variant, Ordering: ZOrdering})
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []Scenario{PointCount, Length} {
			top, err := idx.TopK(routes, 3, Query{Scenario: sc, Psi: DefaultPsi})
			if err != nil {
				t.Fatalf("%v/%v: %v", variant, sc, err)
			}
			if len(top) != 3 {
				t.Fatalf("%v/%v: %d results", variant, sc, len(top))
			}
		}
	}
	// TwoPoint over multipoint data must reject PointCount.
	idx, err := NewIndex(users, IndexOptions{Variant: TwoPoint})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.TopK(routes, 3, Query{Scenario: PointCount, Psi: DefaultPsi}); err == nil {
		t.Error("TwoPoint index accepted PointCount over multipoint data")
	}
}

func TestPublicAPIDeleteAndServedUsers(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	served, err := idx.ServedUsers(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := idx.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range served {
		sum += s.Value
	}
	if math.Abs(sum-direct) > 1e-9 {
		t.Fatalf("ServedUsers sum %v != ServiceValue %v", sum, direct)
	}

	// Deleting every served user drives the route's service to zero.
	for _, s := range served {
		u := users[0]
		for _, cand := range users {
			if cand.ID == s.User {
				u = cand
				break
			}
		}
		if !idx.Delete(u) {
			t.Fatalf("Delete(%d) failed", s.User)
		}
	}
	after, err := idx.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if after != 0 {
		t.Fatalf("service after deleting all served users = %v, want 0", after)
	}
	if idx.Delete(ghostTrajectory()) {
		t.Error("Delete of unknown trajectory succeeded")
	}
}

// ghostTrajectory builds a throwaway trajectory with an unused ID.
func ghostTrajectory() *Trajectory {
	t, _ := NewTrajectory(4_000_000, []Point{Pt(1, 1), Pt(2, 2)})
	return t
}

func TestPublicAPIConstructors(t *testing.T) {
	tr, err := NewTrajectory(1, []Point{Pt(0, 0), Pt(1, 1)})
	if err != nil || tr.Len() != 2 {
		t.Fatalf("NewTrajectory: %v %v", tr, err)
	}
	if _, err := NewTrajectory(1, []Point{Pt(0, 0)}); err == nil {
		t.Error("single-point trajectory accepted")
	}
	f, err := NewFacility(2, []Point{Pt(3, 4)})
	if err != nil || f.Len() != 1 {
		t.Fatalf("NewFacility: %v %v", f, err)
	}
	if CoverageAlgorithm(99).String() == "" || TwoStepGreedy.String() != "two-step-greedy" {
		t.Error("CoverageAlgorithm.String broken")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	ny, bj := NewYorkCity(), BeijingCity()
	if len(TaxiTrips(ny, 10, 1)) != 10 {
		t.Error("TaxiTrips count")
	}
	if len(Checkins(ny, 10, 5, 1)) != 10 {
		t.Error("Checkins count")
	}
	if len(GPSTraces(bj, 10, 5, 20, 1)) != 10 {
		t.Error("GPSTraces count")
	}
	if len(BusRoutes(ny, 10, 8, 1)) != 10 {
		t.Error("BusRoutes count")
	}
}
