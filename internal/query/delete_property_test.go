package query_test

// Property tests for the delete path of the public Index — a live index:
// deletes tombstone base trajectories or drop delta ones, and a
// background rebuild folds them away. Build → insert → delete → query
// must answer exactly like a fresh build over the surviving corpus,
// across every variant × ordering, where a missed entry or a stale
// tombstone would surface as a wrong service value or a wrong top-k
// order.

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// eachConfig calls fn with every (variant, ordering, scenario) that is
// exact over multipoint data.
func eachConfig(fn func(v tqtree.Variant, o tqtree.Ordering, sc service.Scenario)) {
	for _, v := range []tqtree.Variant{tqtree.TwoPoint, tqtree.Segmented, tqtree.FullTrajectory} {
		for _, o := range []tqtree.Ordering{tqtree.Basic, tqtree.ZOrder} {
			for _, sc := range []service.Scenario{service.Binary, service.PointCount, service.Length} {
				if v != tqtree.TwoPoint || sc == service.Binary {
					fn(v, o, sc)
				}
			}
		}
	}
}

func newIndex(t *testing.T, users []*trajectory.Trajectory, v tqtree.Variant, o tqtree.Ordering) *trajcover.Index {
	t.Helper()
	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{Variant: v, Ordering: o, Beta: 8, Bounds: query.TestBounds})
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// TestBuildInsertDeleteMatchesFreshBuild: an Index built over part of a
// corpus, given the rest by Insert and a third of it taken away by
// Delete, answers ServiceValue and TopK exactly like a fresh build of the
// surviving corpus — byte-identical for Binary, within float summation
// tolerance for the fractional scenarios.
func TestBuildInsertDeleteMatchesFreshBuild(t *testing.T) {
	users := query.MakeUsers(600, 4, 601).All
	facilities := query.MakeFacilities(24, 8, 602)
	const k = 8
	eachConfig(func(v tqtree.Variant, o tqtree.Ordering, sc service.Scenario) {
		name := v.String() + "/" + o.String() + "/" + sc.String()
		idx := newIndex(t, users[:450], v, o)
		for _, u := range users[450:] {
			if err := idx.Insert(u); err != nil {
				t.Fatal(err)
			}
		}
		var survivors []*trajectory.Trajectory
		for _, u := range users {
			if u.ID%3 != 0 {
				survivors = append(survivors, u)
			} else if ok, err := idx.Delete(u.ID); err != nil || !ok {
				t.Fatalf("%s: Delete(%d) = %v, %v", name, u.ID, ok, err)
			}
		}
		if idx.Len() != len(survivors) {
			t.Fatalf("%s: Len %d, want %d", name, idx.Len(), len(survivors))
		}
		fresh := newIndex(t, survivors, v, o)
		q := trajcover.Query{Scenario: sc, Psi: 40}
		same := func(got, want float64) bool {
			if sc == service.Binary {
				return got == want
			}
			return math.Abs(got-want) <= 1e-6*(1+math.Abs(want))
		}
		set := trajectory.MustNewSet(survivors)
		for _, f := range facilities {
			want, err := fresh.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := idx.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if !same(got, want) {
				t.Fatalf("%s: churned ServiceValue(%d) = %v, fresh = %v", name, f.ID, got, want)
			}
			// And against the brute-force oracle, so both indexes being
			// wrong the same way cannot pass.
			oracle := query.ExactServiceValue(v, sc, set, f.Stops, q.Psi)
			if math.Abs(got-oracle) > 1e-6*(1+math.Abs(oracle)) {
				t.Fatalf("%s: churned ServiceValue(%d) = %v, oracle = %v", name, f.ID, got, oracle)
			}
		}
		gotTop, err := idx.TopK(facilities, k, q)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, err := fresh.TopK(facilities, k, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotTop) != len(wantTop) {
			t.Fatalf("%s: TopK lengths %d vs %d", name, len(gotTop), len(wantTop))
		}
		for i := range wantTop {
			if gotTop[i].Facility.ID != wantTop[i].Facility.ID || !same(gotTop[i].Service, wantTop[i].Service) {
				t.Fatalf("%s: TopK[%d] = (%d, %v), fresh = (%d, %v)", name, i,
					gotTop[i].Facility.ID, gotTop[i].Service, wantTop[i].Facility.ID, wantTop[i].Service)
			}
		}
	})
}

// TestDeleteAllThenReinsert drives an Index to empty and back, checking
// queries at both extremes.
func TestDeleteAllThenReinsert(t *testing.T) {
	users := query.MakeUsers(300, 3, 603).All
	facilities := query.MakeFacilities(8, 6, 604)
	rng := rand.New(rand.NewSource(605))
	q := trajcover.Query{Scenario: service.Binary, Psi: 40}
	eachConfig(func(v tqtree.Variant, o tqtree.Ordering, sc service.Scenario) {
		if sc != service.Binary {
			return // one scenario suffices; this is a structural test
		}
		idx := newIndex(t, users, v, o)
		// Delete everything, in random order.
		for _, i := range rng.Perm(len(users)) {
			if ok, err := idx.Delete(users[i].ID); err != nil || !ok {
				t.Fatalf("Delete(%d) = %v, %v", users[i].ID, ok, err)
			}
		}
		if idx.Len() != 0 {
			t.Fatalf("%v/%v: Len %d after deleting everything", v, o, idx.Len())
		}
		for _, f := range facilities {
			got, err := idx.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != 0 {
				t.Fatalf("%v/%v: empty index ServiceValue(%d) = %v", v, o, f.ID, got)
			}
		}

		// Re-insert everything and compare to a fresh build.
		for _, u := range users {
			if err := idx.Insert(u); err != nil {
				t.Fatal(err)
			}
		}
		fresh := newIndex(t, users, v, o)
		for _, f := range facilities {
			got, err := idx.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v/%v: reinserted ServiceValue(%d) = %v, fresh = %v", v, o, f.ID, got, want)
			}
		}
	})
}
