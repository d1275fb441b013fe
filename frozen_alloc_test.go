package trajcover

import (
	"context"
	"testing"
)

// TestFrozenServiceValueAllocs asserts the hot path of an Index restored
// from its snapshot stays within its allocation budget: at most 1
// alloc/op (the pooling target) and never more than the Index that wrote
// it. Both draw scratch from sync.Pools, so a couple of warm-up queries
// populate them before measuring.
func TestFrozenServiceValueAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool drops items deliberately")
	}
	ny := NewYorkCity()
	users := TaxiTrips(ny, 3000, 7)
	routes := BusRoutes(ny, 8, 32, 3)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz := snapshotRestore(t, idx)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	for _, r := range routes {
		if _, err := idx.ServiceValue(r, q); err != nil {
			t.Fatal(err)
		}
		if _, err := fz.ServiceValue(r, q); err != nil {
			t.Fatal(err)
		}
	}
	live := testing.AllocsPerRun(200, func() {
		if _, err := idx.ServiceValue(routes[0], q); err != nil {
			t.Fatal(err)
		}
	})
	frozen := testing.AllocsPerRun(200, func() {
		if _, err := fz.ServiceValue(routes[0], q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("ServiceValue allocs/op: Index %.2f, frozen %.2f", live, frozen)
	if frozen > 1 {
		t.Fatalf("frozen ServiceValue allocates %.2f/op, want <= 1", frozen)
	}
	if frozen > live+0.5 {
		t.Fatalf("frozen ServiceValue allocates %.2f/op, Index %.2f/op", frozen, live)
	}
}

// TestLiveTopKWithMetricsAllocs asserts the public query methods are free
// on the serving path: Index.TopKWithMetrics allocates no more than the
// shard.Live.TopKCtx call it forwards to.
func TestLiveTopKWithMetricsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool drops items deliberately")
	}
	ny := NewYorkCity()
	routes := BusRoutes(ny, 8, 32, 3)
	lsh, err := NewIndex(TaxiTrips(ny, 3000, 7), IndexOptions{Ordering: ZOrdering, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	direct := testing.AllocsPerRun(50, func() {
		if _, _, err := lsh.s.TopKCtx(context.Background(), routes, 4, q.params(), 1); err != nil {
			t.Fatal(err)
		}
	})
	public := testing.AllocsPerRun(50, func() {
		if _, _, err := lsh.TopKWithMetrics(routes, 4, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("TopK allocs/op: shard.Live.TopKCtx %.0f, Index.TopKWithMetrics %.0f", direct, public)
	if public > direct {
		t.Fatalf("Index.TopKWithMetrics allocates %.0f/op, the direct shard call %.0f/op", public, direct)
	}
}

// TestLiveShardedTopKAllocs pins the serving path's allocations at the
// paper's query shape (N=128 × S=32, k=8, 2 shards): ServiceValues is
// one allocation, the slice every shard adds its values into (the shard
// capture is on the caller's stack), the sharded top-k is that batch
// plus the sort-and-cut's few allocations — nothing per facility or per
// shard — and reading the bounds alone allocates the answer and nothing
// else.
func TestLiveShardedTopKAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are not meaningful under -race: sync.Pool drops items deliberately")
	}
	ny := NewYorkCity()
	routes := BusRoutes(ny, 128, 32, 3)
	lsh, err := NewIndex(TaxiTrips(ny, 3000, 7), IndexOptions{Ordering: ZOrdering, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	ctx := context.Background()
	values := testing.AllocsPerRun(20, func() {
		if _, err := lsh.ServiceValuesCtx(ctx, routes, q, 1); err != nil {
			t.Fatal(err)
		}
	})
	topk := testing.AllocsPerRun(20, func() {
		if _, err := lsh.TopKCtx(ctx, routes, 8, q); err != nil {
			t.Fatal(err)
		}
	})
	bounds := testing.AllocsPerRun(20, func() {
		if _, err := lsh.UpperBoundsCtx(ctx, routes, q); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op at N=128 S=32 k=8, 2 shards: ServiceValues %.0f, TopK %.0f, UpperBounds %.0f", values, topk, bounds)
	if values > 1 {
		t.Fatalf("ServiceValues allocates %.0f/op over 2 shards, want 1: the shards add into one slice", values)
	}
	if topk > values+4 {
		t.Fatalf("TopK allocates %.0f/op, ServiceValues %.0f/op: more than 4 on top", topk, values)
	}
	if bounds > 2 {
		t.Fatalf("UpperBoundsCtx allocates %.0f/op, want <= 2", bounds)
	}
}
