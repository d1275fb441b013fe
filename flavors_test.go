package trajcover

import (
	"context"
	"fmt"
	"testing"
)

// flavor is the public query surface every index type must expose: the
// nine kMaxRRST entry points, the two coverage queries, and Len. The
// assignments below pin the method set at compile time.
type flavor interface {
	Len() int
	ServiceValue(f *Facility, q Query) (float64, error)
	ServiceValues(facilities []*Facility, q Query, workers int) ([]float64, error)
	TopK(facilities []*Facility, k int, q Query) ([]Ranked, error)
	TopKWithMetrics(facilities []*Facility, k int, q Query) ([]Ranked, QueryMetrics, error)
	TopKParallel(facilities []*Facility, k int, q Query, workers int) ([]Ranked, error)
	ServiceValuesCtx(ctx context.Context, facilities []*Facility, q Query, workers int) ([]float64, error)
	TopKCtx(ctx context.Context, facilities []*Facility, k int, q Query) ([]Ranked, error)
	TopKParallelCtx(ctx context.Context, facilities []*Facility, k int, q Query, workers int) ([]Ranked, error)
	ServiceValuesStreamCtx(ctx context.Context, facilities []*Facility, q Query, workers, chunk int, yield StreamVisitor) error
	ServedUsers(f *Facility, q Query) ([]ServedUser, error)
	MaxCoverage(facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error)
}

var (
	_ flavor = (*Index)(nil)
	_ flavor = (*FrozenIndex)(nil)
	_ flavor = (*ShardedIndex)(nil)
	_ flavor = (*FrozenShardedIndex)(nil)
	_ flavor = (*LiveIndex)(nil)
	_ flavor = (*LiveShardedIndex)(nil)
)

func flavorName(f flavor) string { return fmt.Sprintf("%T", f)[len("*trajcover."):] }

// allFlavors builds one index of every type over the same logical
// corpus, in the order of the pins above, TQ(Z) with three shards where
// there are shards; see allFlavorsWith.
func allFlavors(t testing.TB, users []*Trajectory) []flavor {
	t.Helper()
	return allFlavorsWith(t, users, IndexOptions{Ordering: ZOrdering}, 3)
}

// allFlavorsWith is allFlavors for a given tree configuration and shard
// count. The live flavors reach the corpus through churn, so their
// epochs carry a non-empty delta overlay (and, for the sharded one,
// tombstones): LiveIndex is built over the first two thirds and inserts
// the rest; LiveShardedIndex is built over the first half, inserts the
// rest, then deletes and re-inserts the first six.
func allFlavorsWith(t testing.TB, users []*Trajectory, opts IndexOptions, shards int) []flavor {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	manual := LivePolicy{Manual: true}

	idx, err := NewIndex(users, opts)
	must(err)
	fz, err := idx.Freeze()
	must(err)
	sh, err := NewShardedIndex(users, ShardOptions{Shards: shards, Index: opts})
	must(err)
	fsh, err := sh.Freeze()
	must(err)

	cut := 2 * len(users) / 3
	lv, err := NewLiveIndex(users[:cut], LiveIndexOptions{Index: opts, Policy: manual})
	must(err)
	for _, u := range users[cut:] {
		must(lv.Insert(u))
	}

	cut = len(users) / 2
	lsh, err := NewLiveShardedIndex(users[:cut], LiveShardOptions{Shards: shards, Index: opts, Policy: manual})
	must(err)
	for _, u := range users[cut:] {
		must(lsh.Insert(u))
	}
	for _, u := range users[:6] {
		if ok, err := lsh.Delete(u.ID); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", u.ID, ok, err)
		}
		must(lsh.Insert(u))
	}
	return []flavor{idx, fz, sh, fsh, lv, lsh}
}
