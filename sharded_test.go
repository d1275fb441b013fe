package trajcover

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestShardedEquivalenceProperty is the PR's acceptance property: for
// random datasets, the sharded index returns byte-identical answers to
// the single-tree index across 1/2/4/8 shards and both partitioners.
// Binary service values are integral, so float64 sums are exact and ==
// is the right comparison; run under -race this also exercises the
// concurrent scatter-gather merge. Index and FrozenIndex are the one-shard
// ShardedIndex and FrozenShardedIndex, so against those they agree on
// every method, work metrics included, before and after Inserts and
// Deletes.
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
				idx, err := NewShardedIndex(users, ShardOptions{
					Shards:      shards,
					Partitioner: part,
					Index:       IndexOptions{Ordering: ZOrdering},
				})
				if err != nil {
					t.Fatal(err)
				}
				if idx.NumShards() != shards || idx.Len() != len(users) {
					t.Fatalf("seed %d %s/%d: %d shards over %d trajectories, want %d over %d",
						seed, part.Kind(), shards, idx.NumShards(), idx.Len(), shards, len(users))
				}
				gotSV, err := idx.ServiceValues(routes, q, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantSV {
					if gotSV[i] != wantSV[i] {
						t.Fatalf("seed %d %s/%d: facility %d service %v, single-tree %v",
							seed, part.Kind(), shards, routes[i].ID, gotSV[i], wantSV[i])
					}
				}
				for name, topk := range map[string]func() ([]Ranked, error){
					"TopK":         func() ([]Ranked, error) { return idx.TopK(routes, 10, q) },
					"TopKParallel": func() ([]Ranked, error) { return idx.TopKParallel(routes, 10, q, 4) },
				} {
					got, err := topk()
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(wantTop) {
						t.Fatalf("seed %d %s/%d %s: %d results, want %d",
							seed, part.Kind(), shards, name, len(got), len(wantTop))
					}
					for i := range wantTop {
						if got[i].Facility.ID != wantTop[i].Facility.ID ||
							got[i].Service != wantTop[i].Service {
							t.Fatalf("seed %d %s/%d %s: rank %d = (%d, %v), single-tree (%d, %v)",
								seed, part.Kind(), shards, name, i,
								got[i].Facility.ID, got[i].Service,
								wantTop[i].Facility.ID, wantTop[i].Service)
						}
					}
				}
			}
		}
	}
}

// checkOneShard builds Index and ShardedIndex{Shards: 1} over users and
// requires them — and their frozen forms — to answer identically on every
// flavor method, then repeats the check after the same Inserts and
// Deletes land in both mutable indexes.
func checkOneShard(t *testing.T, name string, users []*Trajectory, routes []*Facility, q Query) {
	t.Helper()
	cut := len(users) - 40
	idx, err := NewIndex(users[:cut], IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewShardedIndex(users[:cut], ShardOptions{Shards: 1, Index: IndexOptions{Ordering: ZOrdering}})
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
	// A one-shard ShardedIndex has no Delete: its engine takes the one
	// Index.Delete makes.
	e := one.s.Engine(0)
	for _, u := range users[:25] {
		if !idx.Delete(u) {
			t.Fatalf("%s: Delete(%d) found nothing", name, u.ID)
		}
		if !e.Tree().Delete(u) || !e.Users().Remove(u.ID) {
			t.Fatalf("%s: one-shard delete of %d found nothing", name, u.ID)
		}
	}
	if idx.Delete(users[0]) {
		t.Fatalf("%s: Delete(%d) twice reported present", name, users[0].ID)
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
	idx, err := NewShardedIndex(users, ShardOptions{Shards: 4, Index: opts})
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

// TestShardedIndexConcurrentReaders checks a built ShardedIndex is safe
// for concurrent readers, like the single-tree Index (-race verifies).
func TestShardedIndexConcurrentReaders(t *testing.T) {
	city := NewYorkCity()
	users := TaxiTrips(city, 2000, 8)
	routes := BusRoutes(city, 32, 10, 9)
	idx, err := NewShardedIndex(users, ShardOptions{Shards: 4})
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
