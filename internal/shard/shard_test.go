package shard

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

var testBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

func makeUsers(n, maxPts int, seed int64) []*trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Trajectory, n)
	for i := range out {
		npts := 2
		if maxPts > 2 {
			npts += rng.Intn(maxPts - 1)
		}
		ax := rng.Float64() * 1000
		ay := rng.Float64() * 1000
		pts := make([]geo.Point, npts)
		for j := range pts {
			pts[j] = geo.Pt(
				clampF(ax+rng.NormFloat64()*80, 0, 1000),
				clampF(ay+rng.NormFloat64()*80, 0, 1000),
			)
		}
		out[i] = trajectory.MustNew(trajectory.ID(i), pts)
	}
	return out
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func makeFacilities(n, stops int, seed int64) []*trajectory.Facility {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Facility, n)
	for i := range out {
		ax := rng.Float64() * 1000
		ay := rng.Float64() * 1000
		dirx := rng.NormFloat64()
		diry := rng.NormFloat64()
		pts := make([]geo.Point, stops)
		for j := range pts {
			t := float64(j) * 30
			pts[j] = geo.Pt(
				clampF(ax+dirx*t+rng.NormFloat64()*10, 0, 1000),
				clampF(ay+diry*t+rng.NormFloat64()*10, 0, 1000),
			)
		}
		out[i] = trajectory.MustNewFacility(trajectory.ID(i), pts)
	}
	return out
}

func singleEngine(t *testing.T, users []*trajectory.Trajectory, opts tqtree.Options) *query.FrozenEngine {
	t.Helper()
	fz, err := tqtree.BuildFrozen(users, opts)
	if err != nil {
		t.Fatal(err)
	}
	return query.NewFrozenEngine(fz, nil)
}

var shardCounts = []int{1, 2, 4, 8}

// masksByID reads facility i's rows of a coverage table as user ID → mask.
func masksByID(cov *service.CoverTable, i int) map[trajectory.ID]service.Mask {
	out := map[trajectory.ID]service.Mask{}
	for _, r := range cov.Rows(i) {
		out[cov.Users[r.Slot].ID] = r.Mask
	}
	return out
}

// TestPartitionersCoverAndAreDeterministic checks both built-in
// partitioners assign every trajectory to a valid shard, the same shard
// every time.
func TestPartitionersCoverAndAreDeterministic(t *testing.T) {
	users := makeUsers(500, 4, 11)
	for _, part := range []Partitioner{Hash{}, Grid{}} {
		for _, n := range shardCounts {
			counts := make([]int, n)
			for _, u := range users {
				i := part.Assign(u, testBounds, n)
				if i < 0 || i >= n {
					t.Fatalf("%s: assign out of range: %d of %d", part.Kind(), i, n)
				}
				if j := part.Assign(u, testBounds, n); j != i {
					t.Fatalf("%s: nondeterministic assignment %d vs %d", part.Kind(), i, j)
				}
				counts[i]++
			}
			if n > 1 && part.Kind() == "hash" {
				// Hash sharding over 500 uniform IDs should not leave a
				// shard empty.
				for i, c := range counts {
					if c == 0 {
						t.Fatalf("hash: shard %d/%d empty", i, n)
					}
				}
			}
		}
	}
}

// TestGridPartitionerClampsOutOfBounds checks out-of-range points land in
// edge cells rather than out-of-range shards.
func TestGridPartitionerClampsOutOfBounds(t *testing.T) {
	far := trajectory.MustNew(1, []geo.Point{geo.Pt(-500, 5000), geo.Pt(-400, 4800)})
	if i := (Grid{}).Assign(far, testBounds, 4); i < 0 || i >= 4 {
		t.Fatalf("out-of-bounds trajectory assigned to shard %d", i)
	}
	if i := (Grid{}).Assign(far, geo.Rect{}, 4); i < 0 || i >= 4 {
		t.Fatalf("degenerate bounds assigned to shard %d", i)
	}
}

// TestShardedMatchesSingleTree is the core equivalence property: for
// random datasets, every shard count, both partitioners, and every valid
// (variant, scenario) pair, the sharded ServiceValues and TopK agree with
// the single-tree engine — exactly for Binary, within float summation
// tolerance otherwise — and the union of the shards' coverage masks is
// the single tree's, bit for bit.
func TestShardedMatchesSingleTree(t *testing.T) {
	type cfg struct {
		variant  tqtree.Variant
		scenario service.Scenario
	}
	cfgs := []cfg{
		{tqtree.TwoPoint, service.Binary},
		{tqtree.Segmented, service.PointCount},
		{tqtree.FullTrajectory, service.Length},
	}
	users := makeUsers(3000, 4, 21)
	facilities := makeFacilities(40, 10, 22)
	const k = 10
	for _, c := range cfgs {
		treeOpts := tqtree.Options{Variant: c.variant, Ordering: tqtree.ZOrder, Bounds: testBounds}
		eng := singleEngine(t, users, treeOpts)
		p := query.Params{Scenario: c.scenario, Psi: 40}
		wantSV, _, err := eng.ServiceValues(facilities, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantTop, _, err := eng.TopK(facilities, k, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []Partitioner{Hash{}, Grid{}} {
			for _, n := range shardCounts {
				s, err := BuildFrozen(users, Options{Shards: n, Partitioner: part, Tree: treeOpts})
				if err != nil {
					t.Fatal(err)
				}
				if s.Len() != len(users) {
					t.Fatalf("%s/%d shards: %d trajectories indexed, want %d",
						part.Kind(), n, s.Len(), len(users))
				}
				tol := 0.0
				if c.scenario != service.Binary {
					tol = 1e-9
				}
				gotSV, _, err := s.ServiceValuesCtx(context.Background(), facilities, p, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantSV {
					if math.Abs(gotSV[i]-wantSV[i]) > tol*(1+wantSV[i]) {
						t.Fatalf("%v %s/%d shards: facility %d service %v, want %v",
							c, part.Kind(), n, facilities[i].ID, gotSV[i], wantSV[i])
					}
				}
				gotTop, m, err := s.TopKCtx(context.Background(), facilities, k, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotTop) != len(wantTop) {
					t.Fatalf("%v %s/%d shards: %d results, want %d",
						c, part.Kind(), n, len(gotTop), len(wantTop))
				}
				for i := range wantTop {
					if gotTop[i].Facility.ID != wantTop[i].Facility.ID ||
						math.Abs(gotTop[i].Service-wantTop[i].Service) > tol*(1+wantTop[i].Service) {
						t.Fatalf("%v %s/%d shards: rank %d = (%d, %v), want (%d, %v)",
							c, part.Kind(), n, i,
							gotTop[i].Facility.ID, gotTop[i].Service,
							wantTop[i].Facility.ID, wantTop[i].Service)
					}
				}
				// The sharded top-k is sort-and-cut over the same exact
				// sums ServiceValues reports, bit for bit.
				for i, r := range gotTop {
					if sv := gotSV[slices.Index(facilities, r.Facility)]; r.Service != sv {
						t.Fatalf("%v %s/%d shards: rank %d service %v, ServiceValues %v",
							c, part.Kind(), n, i, r.Service, sv)
					}
				}
				if m.EntriesScored == 0 && wantTop[0].Service > 0 {
					t.Fatalf("%v %s/%d shards: no work recorded", c, part.Kind(), n)
				}
				single, err := query.NewEpoch(eng.Frozen(), nil, nil, 0)
				if err != nil {
					t.Fatal(err)
				}
				want, _, err := single.Cover(facilities[:8], p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Source().Cover(facilities[:8], p)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Users) != len(want.Users) {
					t.Fatalf("%v %s/%d shards: %d users covered, single tree %d",
						c, part.Kind(), n, len(got.Users), len(want.Users))
				}
				for i, f := range facilities[:8] {
					if g, w := masksByID(got, i), masksByID(want, i); !reflect.DeepEqual(g, w) {
						t.Fatalf("%v %s/%d shards: facility %d covers %d users, single tree %d",
							c, part.Kind(), n, f.ID, len(g), len(w))
					}
				}
			}
		}
	}
}

// TestShardedTopKParallelMatchesSerial checks the concurrent merge emits
// the same answer as the serial scatter-gather.
func TestShardedTopKParallelMatchesSerial(t *testing.T) {
	users := makeUsers(2000, 2, 31)
	facilities := makeFacilities(32, 8, 32)
	s, err := BuildFrozen(users, Options{Shards: 4, Tree: tqtree.Options{
		Ordering: tqtree.ZOrder, Bounds: testBounds,
	}})
	if err != nil {
		t.Fatal(err)
	}
	p := query.Params{Scenario: service.Binary, Psi: 40}
	want, _, err := s.TopKCtx(context.Background(), facilities, 8, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 8} {
		got, _, err := s.TopKCtx(context.Background(), facilities, 8, p, workers)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i].Facility.ID != want[i].Facility.ID || got[i].Service != want[i].Service {
				t.Fatalf("workers=%d rank %d: (%d, %v), want (%d, %v)", workers, i,
					got[i].Facility.ID, got[i].Service, want[i].Facility.ID, want[i].Service)
			}
		}
	}
}

// TestBuildParallelismIsEquivalent checks the shard build produces the
// same index whatever the goroutine budget.
func TestBuildParallelismIsEquivalent(t *testing.T) {
	users := makeUsers(2000, 2, 41)
	facilities := makeFacilities(16, 8, 42)
	p := query.Params{Scenario: service.Binary, Psi: 40}
	var want []float64
	for _, par := range []int{1, 2, 8} {
		s, err := BuildFrozen(users, Options{Shards: 4, Tree: tqtree.Options{
			Bounds: testBounds, Parallelism: par,
		}})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := s.ServiceValuesCtx(context.Background(), facilities, p, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("parallelism %d: facility %d value %v, want %v",
					par, facilities[i].ID, got[i], want[i])
			}
		}
	}
}

// TestShardedInsertRoutesToOneShard checks Insert places the trajectory
// where the partitioner says, updates totals, and rejects duplicates
// across shards.
func TestShardedInsertRoutesToOneShard(t *testing.T) {
	users := makeUsers(400, 2, 51)
	s, err := BuildLive(users, Options{Shards: 4, Tree: tqtree.Options{Bounds: testBounds}}, manualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	before := s.Sizes()
	u := trajectory.MustNew(10000, []geo.Point{geo.Pt(10, 10), geo.Pt(20, 20)})
	if err := s.Insert(u); err != nil {
		t.Fatal(err)
	}
	want := Hash{}.Assign(u, s.Epochs()[0].Base().Bounds(), 4)
	after := s.Sizes()
	for i := range after {
		delta := after[i] - before[i]
		if i == want && delta != 1 {
			t.Fatalf("shard %d grew by %d, want 1", i, delta)
		}
		if i != want && delta != 0 {
			t.Fatalf("shard %d grew by %d, want 0", i, delta)
		}
	}
	if err := s.Insert(u); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	// The inserted trajectory must be served like any other, and covered
	// as the object inserted.
	f := trajectory.MustNewFacility(1, []geo.Point{geo.Pt(12, 12), geo.Pt(18, 18)})
	p := query.Params{Scenario: service.Binary, Psi: 20}
	cov, err := s.Source().Cover([]*trajectory.Facility{f}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(cov.Users, u) {
		t.Fatal("inserted trajectory not in the coverage table")
	}
	v, _, err := s.ServiceValue(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if v < 1 {
		t.Fatalf("inserted trajectory not served: value %v", v)
	}
}

// TestBuildRejectsCrossShardDuplicates checks corpus-wide duplicate IDs
// fail the build even when the duplicates land in different shards.
func TestBuildRejectsCrossShardDuplicates(t *testing.T) {
	a := trajectory.MustNew(7, []geo.Point{geo.Pt(1, 1), geo.Pt(2, 2)})
	b := trajectory.MustNew(7, []geo.Point{geo.Pt(900, 900), geo.Pt(950, 950)})
	if _, err := BuildFrozen([]*trajectory.Trajectory{a, b}, Options{Shards: 4, Partitioner: Grid{}}); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
}

// TestEmptyAndTinyCorpora checks degenerate inputs: no users, fewer users
// than shards (some shards empty), empty facility lists.
func TestEmptyAndTinyCorpora(t *testing.T) {
	p := query.Params{Scenario: service.Binary, Psi: 40}
	s, err := BuildFrozen(nil, Options{Shards: 4, Tree: tqtree.Options{Bounds: testBounds}})
	if err != nil {
		t.Fatal(err)
	}
	fs := makeFacilities(3, 4, 61)
	top, _, err := s.TopKCtx(context.Background(), fs, 2, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range top {
		if r.Service != 0 {
			t.Fatalf("empty index served %v", r.Service)
		}
	}
	if _, _, err := s.TopKCtx(context.Background(), nil, 5, p, 1); err != nil {
		t.Fatal(err)
	}
	few := makeUsers(3, 2, 62)
	s, err = BuildFrozen(few, Options{Shards: 8, Tree: tqtree.Options{Bounds: testBounds}})
	if err != nil {
		t.Fatal(err)
	}
	eng := singleEngine(t, few, tqtree.Options{Bounds: testBounds})
	for _, f := range fs {
		got, _, err := s.ServiceValue(f, p)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := eng.ServiceValue(f, p)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("facility %d: %v, want %v", f.ID, got, want)
		}
	}
}

// TestShardedValidates checks parameter and scenario validation fan out.
func TestShardedValidates(t *testing.T) {
	users := makeUsers(300, 4, 81) // multipoint
	s, err := BuildFrozen(users, Options{Shards: 2, Tree: tqtree.Options{Bounds: testBounds}})
	if err != nil {
		t.Fatal(err)
	}
	fs := makeFacilities(4, 4, 82)
	if _, _, err := s.TopKCtx(context.Background(), fs, 2, query.Params{Scenario: service.Scenario(9), Psi: 1}, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
	if _, _, err := s.ServiceValuesCtx(context.Background(), fs, query.Params{Scenario: service.Binary, Psi: -2}, 1); err == nil {
		t.Fatal("negative psi accepted")
	}
	// TwoPoint over multipoint data: PointCount must be rejected, as on
	// the single tree.
	if _, _, err := s.TopKCtx(context.Background(), fs, 2, query.Params{Scenario: service.PointCount, Psi: 1}, 1); err == nil {
		t.Fatal("unsupported scenario accepted")
	}
}

// TestPartitionerOfRoundTrip checks kind-string resolution.
func TestPartitionerOfRoundTrip(t *testing.T) {
	for _, part := range []Partitioner{Hash{}, Grid{}} {
		got, err := PartitionerOf(part.Kind())
		if err != nil || got.Kind() != part.Kind() {
			t.Fatalf("kind %q did not round-trip", part.Kind())
		}
	}
	if _, err := PartitionerOf("bogus"); err == nil {
		t.Fatal("unknown kind resolved")
	}
}

// frozenShardOf builds one frozen shard over users in the shared test
// space.
func frozenShardOf(t *testing.T, users []*trajectory.Trajectory) *tqtree.Frozen {
	t.Helper()
	return singleEngine(t, users, tqtree.Options{Ordering: tqtree.ZOrder, Bounds: testBounds}).Frozen()
}

// TestFrozenAndLiveRejectDuplicateIDs: every way of assembling frozen or
// live shards refuses an ID held twice — inside one shard (the table's
// sort), across two shards' bases (the merge of the sorted ID columns),
// and, for restored epochs, a delta ID equal to another shard's base ID —
// while a delta that re-uses an ID its own shard has tombstoned, and any
// duplicate-free assembly, is accepted.
func TestFrozenAndLiveRejectDuplicateIDs(t *testing.T) {
	users := makeUsers(40, 3, 91)
	dupOf := func(u *trajectory.Trajectory) *trajectory.Trajectory {
		return trajectory.MustNew(u.ID, []geo.Point{geo.Pt(900, 900), geo.Pt(950, 950)})
	}

	// Inside one shard: hash partitioning sends both to the same shard.
	in := append(append([]*trajectory.Trajectory(nil), users...), dupOf(users[3]))
	if _, err := BuildLive(in, Options{Shards: 2}, manualPolicy()); err == nil {
		t.Fatal("BuildLive accepted a duplicate id inside one shard")
	}
	// Across shards: the grid sends the far-away duplicate elsewhere.
	if _, err := BuildLive(in, Options{Shards: 4, Partitioner: Grid{}, Tree: tqtree.Options{Bounds: testBounds}}, manualPolicy()); err == nil {
		t.Fatal("BuildLive accepted a duplicate id across shards")
	}

	a, b := frozenShardOf(t, users[:20]), frozenShardOf(t, users[20:])
	if _, err := FrozenOf([]*tqtree.Frozen{a, b}, Hash{}); err != nil {
		t.Fatalf("disjoint frozen shards: %v", err)
	}
	clash := frozenShardOf(t, append([]*trajectory.Trajectory{dupOf(users[5])}, users[20:]...))
	if _, err := FrozenOf([]*tqtree.Frozen{a, clash}, Hash{}); err == nil {
		t.Fatal("FrozenOf accepted a base id in two shards")
	}

	epochOf := func(e *tqtree.Frozen, delta []*trajectory.Trajectory, dead ...trajectory.ID) *query.Epoch {
		t.Helper()
		ep, err := query.NewEpoch(e, delta, dead, 0)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	// Shard 1's overlay re-inserts an ID that is live in shard 0's base.
	eps := []*query.Epoch{epochOf(a, nil), epochOf(b, []*trajectory.Trajectory{dupOf(users[5])})}
	if _, err := LiveFromEpochs(eps, Hash{}, manualPolicy()); err == nil {
		t.Fatal("LiveFromEpochs accepted a delta id equal to another shard's base id")
	}
	// The same overlay is fine once shard 0 has tombstoned the ID (a
	// delete and a re-insert the partitioner routed elsewhere)...
	eps = []*query.Epoch{epochOf(a, nil, users[5].ID), epochOf(b, []*trajectory.Trajectory{dupOf(users[5])})}
	l, err := LiveFromEpochs(eps, Hash{}, manualPolicy())
	if err != nil {
		t.Fatalf("tombstoned id re-inserted in another shard: %v", err)
	}
	if l.Len() != len(users) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(users))
	}
	// ...and so is one its own shard tombstoned.
	eps = []*query.Epoch{epochOf(a, []*trajectory.Trajectory{dupOf(users[5])}, users[5].ID), epochOf(b, nil)}
	if _, err := LiveFromEpochs(eps, Hash{}, manualPolicy()); err != nil {
		t.Fatalf("tombstoned id re-inserted in its own shard: %v", err)
	}
}
