package trajcover

import (
	"bytes"
	"fmt"
	"testing"
)

// namedFlavor is one subject of allFlavors: an index and what it is.
type namedFlavor struct {
	*Index
	name string
}

// allFlavors builds six indexes over the same logical corpus, TQ(Z): one
// shard, then three, each as built, restored from a snapshot and
// churned; see allFlavorsWith.
func allFlavors(t testing.TB, users []*Trajectory) []namedFlavor {
	t.Helper()
	return allFlavorsWith(t, users, IndexOptions{Ordering: ZOrdering}, 3)
}

// allFlavorsWith is allFlavors for a given tree configuration and shard
// count. Per shard count: an Index as built, an Index restored from the
// built one's WriteSnapshot stream (named FrozenIndex: its shards are
// frozen bases with nothing pending, sharing nothing with the built
// one), and an Index
// that reaches the corpus through churn, so that its epochs carry a
// non-empty delta overlay — at one shard, built over the first two thirds
// with the rest inserted; at the given count, built over the first half
// with the rest inserted, then the first six deleted and re-inserted, for
// tombstones too. The one-shard subjects carry no shard suffix.
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
		fz := snapshotRestore(t, idx)

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

// snapshotRestore writes idx's snapshot and restores it with
// ReadLiveSnapshot: an Index in the state idx is in — nothing pending if
// idx has nothing pending — sharing nothing with idx.
func snapshotRestore(t testing.TB, idx *Index) *Index {
	t.Helper()
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadLiveSnapshot(&buf, LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	return back
}
