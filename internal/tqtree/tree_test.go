package tqtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// randTrajectories generates n multipoint trajectories with 2..maxPts
// points inside bounds, with locality (points near a random anchor).
func randTrajectories(n, maxPts int, seed int64, bounds geo.Rect) []*trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Trajectory, n)
	for i := range out {
		npts := 2
		if maxPts > 2 {
			npts += rng.Intn(maxPts - 1)
		}
		ax := bounds.MinX + rng.Float64()*bounds.Width()
		ay := bounds.MinY + rng.Float64()*bounds.Height()
		spread := bounds.Width() * 0.1
		pts := make([]geo.Point, npts)
		for j := range pts {
			pts[j] = geo.Pt(
				clampF(ax+rng.NormFloat64()*spread, bounds.MinX, bounds.MaxX),
				clampF(ay+rng.NormFloat64()*spread, bounds.MinY, bounds.MaxY),
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

func randStops(n int, seed int64, bounds geo.Rect) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	stops := make([]geo.Point, n)
	for i := range stops {
		stops[i] = geo.Pt(
			bounds.MinX+rng.Float64()*bounds.Width(),
			bounds.MinY+rng.Float64()*bounds.Height(),
		)
	}
	return stops
}

var testBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

func allConfigs() []Options {
	var out []Options
	for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
		for _, o := range []Ordering{Basic, ZOrder} {
			out = append(out, Options{Variant: v, Ordering: o, Beta: 8})
		}
	}
	return out
}

func TestBuildInvariantsAllConfigs(t *testing.T) {
	users := randTrajectories(400, 6, 42, testBounds)
	for _, opts := range allConfigs() {
		t.Run(opts.Variant.String()+"/"+opts.Ordering.String(), func(t *testing.T) {
			tree, err := BuildFrozen(users, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkInvariants(tree); err != nil {
				t.Fatal(err)
			}
			wantEntries := len(users)
			if opts.Variant == Segmented {
				wantEntries = 0
				for _, u := range users {
					wantEntries += u.NumSegments()
				}
			}
			if tree.NumEntries() != wantEntries {
				t.Errorf("NumEntries = %d, want %d", tree.NumEntries(), wantEntries)
			}
			if tree.NumTrajectories() != len(users) {
				t.Errorf("NumTrajectories = %d, want %d", tree.NumTrajectories(), len(users))
			}
		})
	}
}

// TestCandidatePruningIsSound: zReduce must never prune an entry that
// has positive service. At every node, ScoreNode's sum over the
// survivors equals the sum over the whole list, bit for bit (a pruned
// entry adds exactly 0), and the coverage scan keeps every entry with a
// served endpoint — or, under NeedOverlap, any served point.
func TestCandidatePruningIsSound(t *testing.T) {
	users := randTrajectories(300, 6, 45, testBounds)
	psi := 40.0
	for _, opts := range allConfigs() {
		f, err := BuildFrozen(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		covMode := NeedAny
		if opts.Variant == FullTrajectory {
			covMode = NeedOverlap
		}
		rng := rand.New(rand.NewSource(46))
		for trial := 0; trial < 30; trial++ {
			stops := randStops(1+rng.Intn(10), int64(trial)*7+1, testBounds)
			embr := geo.RectOf(stops).Expand(psi)
			ss := service.NewStopSet(stops, psi)
			for n := int32(0); int(n) < f.NumNodes(); n++ {
				lo, hi := f.entryOff[n], f.entryOff[n+1]
				for sc := service.Binary; sc <= service.Length; sc++ {
					if f.ValidateScenario(sc) != nil {
						continue
					}
					var all float64
					for e := lo; e < hi; e++ {
						all += f.serve(e, sc, ss)
					}
					if got, _ := f.ScoreNode(n, embr, f.FilterModeFor(sc), ss, sc, nil); got != all {
						t.Fatalf("%v/%v sc=%v node %d: survivors serve %v, the whole list %v",
							opts.Variant, opts.Ordering, sc, n, got, all)
					}
				}
				kept := map[int32]bool{}
				for _, e := range f.AppendCovered(nil, n, embr, covMode, nil) {
					kept[e] = true
				}
				for e := lo; e < hi; e++ {
					served := ss.Served(f.entFirst[e]) || ss.Served(f.entLast[e])
					if covMode == NeedOverlap {
						for _, p := range f.table.Points(f.EntryOrdinal(e)) {
							served = served || ss.Served(p)
						}
					}
					if served && !kept[e] {
						t.Fatalf("%v/%v node %d: covered entry %d pruned", opts.Variant, opts.Ordering, n, e)
					}
				}
			}
		}
	}
}

// subtreeService is the service of every entry in the subtree of node n.
func subtreeService(f *Frozen, n int32, sc service.Scenario, ss *service.StopSet) float64 {
	var total float64
	for e := f.entryOff[n]; e < f.entryOff[n+1]; e++ {
		total += f.serve(e, sc, ss)
	}
	for q := 0; q < 4; q++ {
		if c := f.Child(n, q); c >= 0 {
			total += subtreeService(f, c, sc, ss)
		}
	}
	return total
}

func TestTreeUBDominatesAnyService(t *testing.T) {
	// For any facility, every node's treeUB must dominate the service
	// obtainable from entries in its subtree — the root's the total.
	users := randTrajectories(200, 5, 47, testBounds)
	psi := 60.0
	for _, opts := range allConfigs() {
		f, err := BuildFrozen(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		ss := service.NewStopSet(randStops(12, 48, testBounds), psi)
		for sc := service.Binary; sc <= service.Length; sc++ {
			for n := int32(0); int(n) < f.NumNodes(); n++ {
				if got := subtreeService(f, n, sc, ss); got > f.TreeUB(n, sc)+1e-9 {
					t.Fatalf("%v/%v sc=%v: subtree service %v exceeds treeUB %v",
						opts.Variant, opts.Ordering, sc, got, f.TreeUB(n, sc))
				}
			}
		}
	}
}

func TestSegmentEntriesSumToTrajectoryService(t *testing.T) {
	// Summing segment-entry contributions over a whole trajectory must
	// reproduce the trajectory-level PointCount and Length values.
	rng := rand.New(rand.NewSource(49))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(8)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		u := trajectory.MustNew(1, pts)
		f, err := BuildFrozen([]*trajectory.Trajectory{u}, Options{Variant: Segmented, Ordering: ZOrder, Beta: 2, Bounds: testBounds})
		if err != nil {
			t.Fatal(err)
		}
		stops := randStops(1+rng.Intn(6), int64(trial)+500, geo.Rect{MaxX: 100, MaxY: 100})
		psi := rng.Float64() * 40
		ss := service.NewStopSet(stops, psi)
		for _, sc := range []service.Scenario{service.PointCount, service.Length} {
			var sum float64
			for e := int32(0); int(e) < f.NumEntries(); e++ {
				sum += f.serve(e, sc, ss)
			}
			want := service.Value(sc, u, stops, psi)
			if math.Abs(sum-want) > 1e-9 {
				t.Fatalf("sc=%v: segment sum %v != trajectory value %v", sc, sum, want)
			}
		}
	}
}

func TestValidateScenario(t *testing.T) {
	multi := randTrajectories(50, 5, 50, testBounds)
	twoPt := randTrajectories(50, 2, 51, testBounds)

	tree, _ := BuildFrozen(multi, Options{Variant: TwoPoint})
	if err := tree.ValidateScenario(service.PointCount); err == nil {
		t.Error("TwoPoint over multipoint data accepted PointCount")
	}
	if err := tree.ValidateScenario(service.Binary); err != nil {
		t.Errorf("TwoPoint Binary rejected: %v", err)
	}

	tree2, _ := BuildFrozen(twoPt, Options{Variant: TwoPoint})
	for sc := service.Binary; sc <= service.Length; sc++ {
		if err := tree2.ValidateScenario(sc); err != nil {
			t.Errorf("TwoPoint over 2-point data rejected %v: %v", sc, err)
		}
	}

	tree3, _ := BuildFrozen(multi, Options{Variant: FullTrajectory})
	for sc := service.Binary; sc <= service.Length; sc++ {
		if err := tree3.ValidateScenario(sc); err != nil {
			t.Errorf("FullTrajectory rejected %v: %v", sc, err)
		}
	}
	if err := tree3.ValidateScenario(service.Scenario(7)); err == nil {
		t.Error("invalid scenario accepted")
	}
}

func TestFilterModeFor(t *testing.T) {
	users := randTrajectories(10, 4, 53, testBounds)
	mk := func(v Variant) *Frozen {
		tr, _ := BuildFrozen(users, Options{Variant: v})
		return tr
	}
	cases := []struct {
		v    Variant
		sc   service.Scenario
		want FilterMode
	}{
		{TwoPoint, service.Binary, NeedBoth},
		{TwoPoint, service.PointCount, NeedAny},
		{TwoPoint, service.Length, NeedBoth},
		{Segmented, service.Binary, NeedBoth},
		{Segmented, service.PointCount, NeedAny},
		{Segmented, service.Length, NeedBoth},
		{FullTrajectory, service.Binary, NeedBoth},
		{FullTrajectory, service.PointCount, NeedOverlap},
		{FullTrajectory, service.Length, NeedOverlap},
	}
	for _, tt := range cases {
		if got := mk(tt.v).FilterModeFor(tt.sc); got != tt.want {
			t.Errorf("FilterModeFor(%v,%v) = %v, want %v", tt.v, tt.sc, got, tt.want)
		}
	}
}

func TestAncestorsCanServe(t *testing.T) {
	users := randTrajectories(10, 4, 54, testBounds)
	mk := func(v Variant) *Frozen {
		tr, _ := BuildFrozen(users, Options{Variant: v})
		return tr
	}
	if mk(TwoPoint).AncestorsCanServe(service.Binary) {
		t.Error("TwoPoint/Binary should not need ancestors")
	}
	if !mk(TwoPoint).AncestorsCanServe(service.PointCount) {
		t.Error("TwoPoint/PointCount needs ancestors (single-endpoint service)")
	}
	if mk(Segmented).AncestorsCanServe(service.Length) {
		t.Error("Segmented/Length should not need ancestors")
	}
	if !mk(Segmented).AncestorsCanServe(service.PointCount) {
		t.Error("Segmented/PointCount needs ancestors")
	}
	if !mk(FullTrajectory).AncestorsCanServe(service.Binary) {
		t.Error("FullTrajectory always needs ancestors")
	}
}

func TestDeepDuplicateTrajectoriesBounded(t *testing.T) {
	// Identical trajectories cannot be separated; depth must stay bounded
	// (checkInvariants holds every node to MaxDepth) and the structure
	// valid.
	pts := []geo.Point{geo.Pt(100.5, 100.5), geo.Pt(101, 101)}
	users := make([]*trajectory.Trajectory, 500)
	for i := range users {
		users[i] = trajectory.MustNew(trajectory.ID(i), pts)
	}
	tree, err := BuildFrozen(users, Options{Variant: TwoPoint, Ordering: ZOrder, Beta: 4, MaxDepth: 10, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	if tree.MaxDepth() != 10 {
		t.Fatalf("MaxDepth = %d, want 10", tree.MaxDepth())
	}
	if err := checkInvariants(tree); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTree(t *testing.T) {
	f, err := BuildFrozen(nil, Options{Variant: FullTrajectory, Ordering: ZOrder, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
	if f.TreeUB(0, service.Binary) != 0 {
		t.Error("empty tree has nonzero UB")
	}
	ss := service.NewStopSet([]geo.Point{geo.Pt(500, 500)}, 1000)
	if so, scored := f.ScoreNode(0, testBounds, NeedBoth, ss, service.Binary, nil); so != 0 || scored != 0 {
		t.Errorf("empty tree scored %d entries, service %v", scored, so)
	}
	if hits := f.AppendCovered(nil, 0, testBounds, NeedOverlap, nil); len(hits) != 0 {
		t.Errorf("empty tree covers entries %v", hits)
	}
}

func TestQuickRandomTreesKeepInvariants(t *testing.T) {
	// testing/quick drives random workload shapes (count, point counts,
	// beta, variant, ordering) through BuildFrozen and checks the
	// structural invariants each time.
	f := func(seed int64, nRaw, maxPtsRaw, betaRaw uint8, variantRaw, orderingRaw uint8) bool {
		n := 20 + int(nRaw)%200
		maxPts := 2 + int(maxPtsRaw)%6
		beta := 2 + int(betaRaw)%30
		variant := Variant(int(variantRaw) % 3)
		ordering := Ordering(int(orderingRaw) % 2)
		users := randTrajectories(n, maxPts, seed, testBounds)
		tree, err := BuildFrozen(users, Options{
			Variant: variant, Ordering: ordering, Beta: beta, Bounds: testBounds,
		})
		if err != nil {
			t.Logf("build error: %v", err)
			return false
		}
		if err := checkInvariants(tree); err != nil {
			t.Logf("invariant violation (seed=%d n=%d beta=%d %v/%v): %v",
				seed, n, beta, variant, ordering, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestVariantOrderingStrings(t *testing.T) {
	if TwoPoint.String() != "twopoint" || Segmented.String() != "segmented" ||
		FullTrajectory.String() != "fulltrajectory" {
		t.Error("Variant.String broken")
	}
	if Basic.String() != "basic" || ZOrder.String() != "zorder" {
		t.Error("Ordering.String broken")
	}
	if Variant(9).String() == "" || Ordering(9).String() == "" {
		t.Error("out-of-range String empty")
	}
}
