package shard_test

import (
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// trips returns n two-point trips with IDs from first on.
func trips(n int, first trajectory.ID, seed int64) []*trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Trajectory, n)
	for i := range out {
		a := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		out[i] = trajectory.MustNew(first+trajectory.ID(i), []geo.Point{a, a.Add(1+rng.Float64()*50, rng.Float64()*50)})
	}
	return out
}

// TestFoldBuildsLookupOnlyWhenWritesRace: a fold's new base holds the
// by-ID lookup after the swap exactly when the swap had to look IDs up in
// it — an insert or a delete landed during the fold (the rebuild builds
// it then, off the writer lock). A quiet fold leaves the new base as a
// read-only table is, 36 bytes a two-point trip.
func TestFoldBuildsLookupOnlyWhenWritesRace(t *testing.T) {
	users := trips(3000, 0, 1)
	extra := trips(200, 100000, 2)
	opts := shard.Options{Shards: 1, Tree: tqtree.Options{Ordering: tqtree.ZOrder, Beta: 16}}
	for _, tc := range []struct {
		name   string
		during func(lv *shard.Live) error
		lookup bool
	}{
		{"quiet", nil, false},
		{"insert", func(lv *shard.Live) error { return lv.Insert(extra[199]) }, true},
		{"delete", func(lv *shard.Live) error { _, err := lv.Delete(users[7].ID); return err }, true},
	} {
		lv, err := shard.BuildLive(users, opts, shard.Policy{Manual: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range extra[:100] {
			if err := lv.Insert(u); err != nil {
				t.Fatal(err)
			}
		}
		folds := 0
		shard.SetAfterFold(lv, func() {
			if folds++; tc.during != nil {
				if err := tc.during(lv); err != nil {
					t.Errorf("%s: write during the fold: %v", tc.name, err)
				}
			}
		})
		if err := lv.Compact(); err != nil {
			t.Fatal(err)
		}
		if folds != 1 {
			t.Fatalf("%s: %d folds, want 1", tc.name, folds)
		}
		tab := lv.Epochs()[0].Base().Table()
		if n := int64(tab.Len()); n != 3100 {
			t.Fatalf("%s: new base holds %d trips, want 3100", tc.name, n)
		}
		var built bool
		switch n := int64(tab.Len()); tab.Bytes() {
		case 36 * n:
		case 40 * n:
			built = true
		default:
			t.Fatalf("%s: a two-point table of %d rows says %d bytes", tc.name, n, tab.Bytes())
		}
		if built != tc.lookup {
			t.Errorf("%s: new base holds the lookup %v, want %v", tc.name, built, tc.lookup)
		}
	}
}
