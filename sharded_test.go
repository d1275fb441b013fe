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

// TestShardedEquivalenceProperty: for random datasets, an Index and a
// FrozenIndex of 1/2/4/8 shards under both partitioners return
// byte-identical answers to the one-shard Index. Binary service values
// are integral, so float64 sums are exact and == is the right comparison;
// run under -race this also exercises the concurrent scatter-gather
// merge. At one shard, live and frozen agree on every method, work
// metrics included, before and after Inserts and Deletes. The coverage
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
				frozen, err := NewFrozenIndex(users, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, idx := range []interface {
					flavor
					NumShards() int
				}{live, frozen} {
					name := fmt.Sprintf("seed %d %s/%d %T", seed, part.Kind(), shards, idx)
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

// checkOneShard requires a one-shard FrozenIndex to answer every flavor
// method as the one-shard Index over the same users does, and that Index
// to answer as the FrozenIndex made Live — their frozen forms too — both
// as built and after the same Inserts and Deletes land in both.
func checkOneShard(t *testing.T, name string, users []*Trajectory, routes []*Facility, q Query) {
	t.Helper()
	cut := len(users) - 40
	opts := IndexOptions{Ordering: ZOrdering}
	idx, err := NewIndex(users[:cut], opts)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := NewFrozenIndex(users[:cut], opts)
	if err != nil {
		t.Fatal(err)
	}
	sameFlavor(t, name+" built FrozenIndex", fz, idx, routes, q)
	one, err := fz.Live(LivePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		sameFlavor(t, name+" "+stage+" Index", idx, one, routes, q)
		fz, err := idx.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		fone, err := one.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		sameFlavor(t, name+" "+stage+" FrozenIndex", fz, fone, routes, q)
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

// sameFlavor requires a and b to answer every flavor method identically:
// values bit for bit, rankings, TopKWithMetrics' metrics, streamed chunks.
func sameFlavor(t *testing.T, name string, a, b flavor, routes []*Facility, q Query) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: Len %d, one-shard %d", name, a.Len(), b.Len())
	}
	ctx := context.Background()
	values := map[string]func(x flavor) ([]float64, error){
		"ServiceValue": func(x flavor) ([]float64, error) {
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
		"ServiceValues":    func(x flavor) ([]float64, error) { return x.ServiceValues(routes, q, 2) },
		"ServiceValuesCtx": func(x flavor) ([]float64, error) { return x.ServiceValuesCtx(ctx, routes, q, 1) },
		"ServiceValuesStreamCtx": func(x flavor) ([]float64, error) {
			var out []float64
			err := x.ServiceValuesStreamCtx(ctx, routes, q, 2, 7, func(_ int, vals []float64) error {
				out = append(out, vals...)
				return nil
			})
			return out, err
		},
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
	rankings := map[string]func(x flavor) ([]Ranked, error){
		"TopK":            func(x flavor) ([]Ranked, error) { return x.TopK(routes, 10, q) },
		"TopKParallel":    func(x flavor) ([]Ranked, error) { return x.TopKParallel(routes, 10, q, 3) },
		"TopKCtx":         func(x flavor) ([]Ranked, error) { return x.TopKCtx(ctx, routes, 10, q) },
		"TopKParallelCtx": func(x flavor) ([]Ranked, error) { return x.TopKParallelCtx(ctx, routes, 10, q, 3) },
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
func sameCoverage(t *testing.T, name string, want flavor, all []namedFlavor, routes []*Facility, q Query) {
	t.Helper()
	type answer struct {
		served [][]ServedUser
		cov    []CoverageResult
	}
	get := func(x flavor) answer {
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
		if got := get(x); !reflect.DeepEqual(got, w) {
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
