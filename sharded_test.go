package trajcover

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// TestShardedEquivalenceProperty: for random datasets, an Index of
// 1/2/4/8 shards under both partitioners, and the Index restored from its
// snapshot, return byte-identical answers to the one-shard Index.
// Binary service values are integral, so float64 sums are exact and == is
// the right comparison; run under -race this also exercises the
// concurrent scatter-gather merge. At one shard, built and restored agree
// on every method, work metrics included, before and after Inserts and
// Deletes. The coverage
// queries, ServedUsers and MaxCoverage, answer the same on all six
// allFlavors subjects, churned ones with an overlay and tombstones.
func TestShardedEquivalenceProperty(t *testing.T) {
	city := NewYorkCity()
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	for _, seed := range []int64{3, 17, 99} {
		users := TaxiTrips(city, 1500+500*int(seed%3), seed)
		routes := BusRoutes(city, 48, 12, seed+1)
		single, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
		if err != nil {
			t.Fatal(err)
		}
		checkOneShard(t, fmt.Sprintf("seed %d", seed), users, routes, q)
		sameCoverage(t, fmt.Sprintf("seed %d", seed), single, allFlavors(t, users), routes, q)
		wantTop, err := single.TopK(routes, 10, q)
		if err != nil {
			t.Fatal(err)
		}
		wantSV, err := single.ServiceValues(routes, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []Partitioner{HashPartitioner(), GridPartitioner()} {
			for _, shards := range []int{1, 2, 4, 8} {
				opts := IndexOptions{Ordering: ZOrdering, Shards: shards, Partitioner: part}
				live, err := NewIndex(users, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, idx := range []namedFlavor{{live, "built"}, {snapshotRestore(t, live), "frozen"}} {
					name := fmt.Sprintf("seed %d %s/%d %s", seed, part.Kind(), shards, idx.name)
					if idx.NumShards() != shards || idx.Len() != len(users) {
						t.Fatalf("%s: %d shards over %d trajectories, want %d over %d",
							name, idx.NumShards(), idx.Len(), shards, len(users))
					}
					gotSV, err := idx.ServiceValues(routes, q, 2)
					if err != nil {
						t.Fatal(err)
					}
					for i := range wantSV {
						if gotSV[i] != wantSV[i] {
							t.Fatalf("%s: facility %d service %v, one shard %v", name, routes[i].ID, gotSV[i], wantSV[i])
						}
					}
					for method, topk := range map[string]func() ([]Ranked, error){
						"TopK":         func() ([]Ranked, error) { return idx.TopK(routes, 10, q) },
						"TopKParallel": func() ([]Ranked, error) { return idx.TopKParallel(routes, 10, q, 4) },
					} {
						got, err := topk()
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(got, wantTop) {
							t.Fatalf("%s %s: %v, one shard %v", name, method, got, wantTop)
						}
					}
				}
			}
		}
	}
}

// checkOneShard requires a one-shard Index restored from a frozen
// snapshot to answer every query method as the Index that wrote it does,
// both as built and after the same Inserts and Deletes land in both — and
// the two's own frozen restores to agree too.
func checkOneShard(t *testing.T, name string, users []*Trajectory, routes []*Facility, q Query) {
	t.Helper()
	cut := len(users) - 40
	idx, err := NewIndex(users[:cut], IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	one := snapshotRestore(t, idx)
	check := func(stage string) {
		t.Helper()
		sameFlavor(t, name+" "+stage+" Index", idx, one, routes, q)
		sameFlavor(t, name+" "+stage+" frozen", snapshotRestore(t, idx), snapshotRestore(t, one), routes, q)
	}
	check("built")
	for _, u := range users[cut:] {
		if err := idx.Insert(u); err != nil {
			t.Fatal(err)
		}
		if err := one.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := idx.Insert(users[0]); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("%s: duplicate Insert err = %v, want ErrDuplicateID", name, err)
	}
	for _, u := range users[:25] {
		for _, x := range []*Index{idx, one} {
			if ok, err := x.Delete(u.ID); !ok || err != nil {
				t.Fatalf("%s: Delete(%d) = %v, %v", name, u.ID, ok, err)
			}
		}
	}
	if ok, err := idx.Delete(users[0].ID); ok || err != nil {
		t.Fatalf("%s: Delete(%d) twice = %v, %v", name, users[0].ID, ok, err)
	}
	check("after writes")
}

// sameFlavor requires a and b to answer every query method identically:
// values bit for bit, rankings and TopKWithMetrics' metrics.
func sameFlavor(t *testing.T, name string, a, b *Index, routes []*Facility, q Query) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d, one-shard %d", name, a.Len(), b.Len())
	}
	ctx := context.Background()
	values := map[string]func(x *Index) ([]float64, error){
		"ServiceValue": func(x *Index) ([]float64, error) {
			out := make([]float64, len(routes))
			for i, f := range routes {
				v, err := x.ServiceValue(f, q)
				if err != nil {
					return nil, err
				}
				out[i] = v
			}
			return out, nil
		},
		"ServiceValues":    func(x *Index) ([]float64, error) { return x.ServiceValues(routes, q, 2) },
		"ServiceValuesCtx": func(x *Index) ([]float64, error) { return x.ServiceValuesCtx(ctx, routes, q, 1) },
	}
	for method, get := range values {
		want, err := get(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := get(a)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, want, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Fatalf("%s %s: %v, one-shard %v", name, method, got, want)
		}
	}
	wantTop, wantM, err := b.TopKWithMetrics(routes, 10, q)
	if err != nil {
		t.Fatal(err)
	}
	gotTop, gotM, err := a.TopKWithMetrics(routes, 10, q)
	if err != nil {
		t.Fatal(err)
	}
	if gotM != wantM || !slices.Equal(gotTop, wantTop) {
		t.Fatalf("%s TopKWithMetrics: %v %+v, one-shard %v %+v", name, gotTop, gotM, wantTop, wantM)
	}
	rankings := map[string]func(x *Index) ([]Ranked, error){
		"TopK":            func(x *Index) ([]Ranked, error) { return x.TopK(routes, 10, q) },
		"TopKParallel":    func(x *Index) ([]Ranked, error) { return x.TopKParallel(routes, 10, q, 3) },
		"TopKCtx":         func(x *Index) ([]Ranked, error) { return x.TopKCtx(ctx, routes, 10, q) },
		"TopKParallelCtx": func(x *Index) ([]Ranked, error) { return x.TopKParallelCtx(ctx, routes, 10, q, 3) },
	}
	for method, get := range rankings {
		got, err := get(a)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, wantTop) {
			t.Fatalf("%s %s: %v, one-shard %v", name, method, got, wantTop)
		}
	}
}

// sameCoverage requires every index of all to answer ServedUsers and
// MaxCoverage — the two-step greedy and the full greedy — as want does:
// the same users and values, the same picks, value and users served.
func sameCoverage(t *testing.T, name string, want *Index, all []namedFlavor, routes []*Facility, q Query) {
	t.Helper()
	type answer struct {
		served [][]ServedUser
		cov    []CoverageResult
	}
	get := func(x *Index) answer {
		var a answer
		for _, f := range routes[:8] {
			us, err := x.ServedUsers(f, q)
			if err != nil {
				t.Fatal(err)
			}
			a.served = append(a.served, us)
		}
		for _, alg := range []CoverageAlgorithm{TwoStepGreedy, FullGreedy} {
			res, err := x.MaxCoverage(routes, 4, q, CoverageOptions{Algorithm: alg})
			if err != nil {
				t.Fatal(err)
			}
			a.cov = append(a.cov, res)
		}
		return a
	}
	w := get(want)
	if len(w.cov[0].Facilities) != 4 || w.cov[0].UsersServed == 0 {
		t.Fatalf("%s: MaxCoverage %+v serves no one", name, w.cov[0])
	}
	for _, x := range all {
		if got := get(x.Index); !reflect.DeepEqual(got, w) {
			t.Fatalf("%s %s: coverage answers %+v, single tree %+v", name, x.name, got, w)
		}
	}
}

// TestShardedFractionalScenariosStayClose checks the documented float
// caveat: fractional scenarios (PointCount/Length) agree with the
// single tree up to summation order, not bit-exactly.
func TestShardedFractionalScenariosStayClose(t *testing.T) {
	city := NewYorkCity()
	users := Checkins(city, 1200, 4, 5)
	routes := BusRoutes(city, 24, 10, 6)
	opts := IndexOptions{Variant: FullTrajectory, Ordering: ZOrdering}
	single, err := NewIndex(users, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 4
	idx, err := NewIndex(users, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []Scenario{PointCount, Length} {
		q := Query{Scenario: sc, Psi: DefaultPsi}
		want, err := single.ServiceValues(routes, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.ServiceValues(routes, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+want[i]) {
				t.Fatalf("scenario %v facility %d: %v, want %v", sc, routes[i].ID, got[i], want[i])
			}
		}
	}
}

// TestShardedIndexConcurrentReaders checks a built four-shard Index is
// safe for concurrent readers (-race verifies).
func TestShardedIndexConcurrentReaders(t *testing.T) {
	city := NewYorkCity()
	users := TaxiTrips(city, 2000, 8)
	routes := BusRoutes(city, 32, 10, 9)
	idx, err := NewIndex(users, IndexOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	want, err := idx.TopK(routes, 6, q)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := idx.TopKParallel(routes, 6, q, 2)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range want {
					if got[i].Facility.ID != want[i].Facility.ID || got[i].Service != want[i].Service {
						t.Errorf("worker %d: rank %d drifted", w, i)
						return
					}
				}
				if _, err := idx.ServiceValue(routes[(w+rep)%len(routes)], q); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
