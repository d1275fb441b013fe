package trajcover

import (
	"errors"
	"fmt"
	"math"
	"strings"
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
	// Duplicate insert must fail with the typed error, at one shard and
	// at two.
	sh, err := NewIndex(users[:1000], IndexOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []*Index{idx, sh} {
		if err := x.Insert(users[0]); !errors.Is(err, ErrDuplicateID) {
			t.Errorf("%d shards: duplicate insert: err = %v, want ErrDuplicateID", x.NumShards(), err)
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
		if ok, err := idx.Delete(s.User); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", s.User, ok, err)
		}
	}
	after, err := idx.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if after != 0 {
		t.Fatalf("service after deleting all served users = %v, want 0", after)
	}
	if ok, err := idx.Delete(4_000_000); ok || err != nil {
		t.Errorf("Delete of an unknown ID = %v, %v", ok, err)
	}
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
	if err != nil || len(f.Stops) != 1 {
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

// TestIndexDeleteByID: Delete(id) removes the whole indexed trajectory
// with that ID — every segment of a Segmented base, from whichever shard
// holds it — so an Index of one shard or three answers as an Index built
// without it, and the ID can no longer be deleted.
func TestIndexDeleteByID(t *testing.T) {
	city := BeijingCity()
	users := GPSTraces(city, 400, 10, 60, 1)
	routes := BusRoutes(city, 20, 16, 2)
	q := Query{Scenario: PointCount, Psi: DefaultPsi}
	for _, shards := range []int{1, 3} {
		opts := IndexOptions{Variant: Segmented, Shards: shards}
		idx, err := NewIndex(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		id := users[17].ID
		if ok, err := idx.Delete(id); err != nil || !ok {
			t.Fatalf("%d shards: Delete(%d) = %v, %v", shards, id, ok, err)
		}
		if idx.Len() != len(users)-1 {
			t.Fatalf("%d shards: Len %d after the delete, want %d", shards, idx.Len(), len(users)-1)
		}
		if ok, err := idx.Delete(id); ok || err != nil {
			t.Fatalf("%d shards: second Delete(%d) = %v, %v", shards, id, ok, err)
		}
		fresh, err := NewIndex(append(append([]*Trajectory(nil), users[:17]...), users[18:]...), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.ServiceValues(routes, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.ServiceValues(routes, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+want[i]) {
				t.Fatalf("%d shards, route %d: PointCount %v after the delete, %v without the trajectory", shards, routes[i].ID, got[i], want[i])
			}
		}
	}
}

// TestMaxCoverageRejectsDuplicateFacilityIDs: coverage is keyed by
// facility ID, so two routes sharing one would be scored as one — every
// solver on every index type, and on the baseline, refuses them naming
// the ID.
func TestMaxCoverageRejectsDuplicateFacilityIDs(t *testing.T) {
	city := NewYorkCity()
	users := TaxiTrips(city, 3000, 1)
	routes := BusRoutes(city, 12, 16, 2)
	dup, err := NewFacility(routes[1].ID, routes[0].Stops)
	if err != nil {
		t.Fatal(err)
	}
	routes[0] = dup
	bl, err := NewBaseline(users, TwoPoint)
	if err != nil {
		t.Fatal(err)
	}
	type coverer interface {
		MaxCoverage([]*Facility, int, Query, CoverageOptions) (CoverageResult, error)
	}
	all := []coverer{bl}
	for _, x := range allFlavors(t, users) {
		all = append(all, x)
	}
	q := Query{Scenario: Binary, Psi: 600}
	for _, x := range all {
		for _, alg := range []CoverageAlgorithm{TwoStepGreedy, FullGreedy, Genetic, Exact} {
			res, err := x.MaxCoverage(routes, 3, q, CoverageOptions{Algorithm: alg})
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(dup.ID)) {
				t.Fatalf("%T %v: %+v, %v; want an error naming facility %d", x, alg, res, err, dup.ID)
			}
		}
	}
}
