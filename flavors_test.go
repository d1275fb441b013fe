package trajcover

import (
	"context"
	"fmt"
	"testing"
)

// flavor is the public query surface both index types must expose: the
// eight kMaxRRST entry points, the two coverage queries, and Len. The
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
	ServedUsers(f *Facility, q Query) ([]ServedUser, error)
	MaxCoverage(facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error)
}

var (
	_ flavor = (*Index)(nil)
	_ flavor = (*FrozenIndex)(nil)
)

// namedFlavor is one subject of allFlavors: an index and what it is.
type namedFlavor struct {
	flavor
	name string
}

// allFlavors builds six indexes over the same logical corpus, TQ(Z): one
// shard, then three, each as built, frozen and churned; see
// allFlavorsWith.
func allFlavors(t testing.TB, users []*Trajectory) []namedFlavor {
	t.Helper()
	return allFlavorsWith(t, users, IndexOptions{Ordering: ZOrdering}, 3)
}

// allFlavorsWith is allFlavors for a given tree configuration and shard
// count. Per shard count: an Index as built, its Freeze, and an Index
// that reaches the corpus through churn, so that its epochs carry a
// non-empty delta overlay — at one shard, built over the first two thirds
// with the rest inserted; at the given count, built over the first half
// with the rest inserted, then the first six deleted and re-inserted, for
// tombstones too. The one-shard subjects are named for their type alone.
func allFlavorsWith(t testing.TB, users []*Trajectory, opts IndexOptions, shards int) []namedFlavor {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []namedFlavor
	for i, n := range []int{1, shards} {
		opts := opts
		opts.Shards = n
		suffix := ""
		if i > 0 {
			suffix = fmt.Sprintf("/%d shards", n)
		}

		idx, err := NewIndex(users, opts)
		must(err)
		fz, err := idx.Freeze()
		must(err)

		cut := 2 * len(users) / 3
		if i > 0 {
			cut = len(users) / 2
		}
		opts.Policy = LivePolicy{Manual: true}
		churned, err := NewIndex(users[:cut], opts)
		must(err)
		for _, u := range users[cut:] {
			must(churned.Insert(u))
		}
		if i > 0 {
			for _, u := range users[:6] {
				if ok, err := churned.Delete(u.ID); err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v", u.ID, ok, err)
				}
				must(churned.Insert(u))
			}
		}
		out = append(out,
			namedFlavor{idx, "Index" + suffix},
			namedFlavor{fz, "FrozenIndex" + suffix},
			namedFlavor{churned, "Index" + suffix + "/churned"})
	}
	return out
}
