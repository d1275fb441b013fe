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
			tree, err := Build(users, opts)
			if err != nil {
				t.Fatal(err)
			}
			if err := tree.CheckInvariants(); err != nil {
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
			st := tree.Stats()
			if st.Entries != wantEntries {
				t.Errorf("Stats.Entries = %d, want %d", st.Entries, wantEntries)
			}
		})
	}
}

func TestInsertMatchesBuild(t *testing.T) {
	users := randTrajectories(300, 5, 43, testBounds)
	for _, opts := range allConfigs() {
		opts.Bounds = testBounds
		t.Run(opts.Variant.String()+"/"+opts.Ordering.String(), func(t *testing.T) {
			// Build with half, insert the rest.
			tree, err := Build(users[:150], opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range users[150:] {
				tree.Insert(u)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if tree.NumTrajectories() != 300 {
				t.Errorf("NumTrajectories = %d", tree.NumTrajectories())
			}
			// Entry totals must match a fresh build over everything.
			full, err := Build(users, opts)
			if err != nil {
				t.Fatal(err)
			}
			if tree.NumEntries() != full.NumEntries() {
				t.Errorf("entries after insert = %d, fresh build = %d",
					tree.NumEntries(), full.NumEntries())
			}
			// Root upper bounds must agree (same entry multiset).
			for sc := 0; sc < service.NumScenarios; sc++ {
				a := tree.Root().TreeUB(service.Scenario(sc))
				b := full.Root().TreeUB(service.Scenario(sc))
				if math.Abs(a-b) > 1e-6*(1+b) {
					t.Errorf("treeUB[%d] after insert = %v, fresh = %v", sc, a, b)
				}
			}
		})
	}
}

func TestInsertOutsideBoundsStaysAtRoot(t *testing.T) {
	opts := Options{Variant: TwoPoint, Ordering: ZOrder, Beta: 4, Bounds: testBounds}
	tree, err := Build(randTrajectories(20, 2, 44, testBounds), opts)
	if err != nil {
		t.Fatal(err)
	}
	far := trajectory.MustNew(9999, []geo.Point{geo.Pt(5000, 5000), geo.Pt(6000, 6000)})
	tree.Insert(far)
	if err := tree.CheckInvariants(); err == nil {
		// Invariant 2 requires routing rect within node rect; the root
		// rect does not contain the far trajectory, so we expect the
		// check to flag it — document the degradation explicitly.
		t.Log("out-of-bounds entry accepted at root (invariants tolerate it)")
	}
}

// collectCandidates runs NodeCandidates over every node of the tree.
func collectCandidates(tree *Tree, embr geo.Rect, mode FilterMode) map[trajectory.ID][]int {
	got := map[trajectory.ID][]int{}
	tree.Root().Walk(func(n *Node) {
		tree.NodeCandidates(n, embr, mode, func(e *Entry) {
			got[e.Traj.ID] = append(got[e.Traj.ID], e.SegIdx)
		})
	})
	return got
}

func TestCandidatePruningIsSound(t *testing.T) {
	// zReduce must never prune an entry that has positive service.
	users := randTrajectories(300, 6, 45, testBounds)
	psi := 40.0
	for _, opts := range allConfigs() {
		tree, err := Build(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(46))
		for trial := 0; trial < 30; trial++ {
			stops := randStops(1+rng.Intn(10), int64(trial)*7+1, testBounds)
			embr := geo.RectOf(stops).Expand(psi)
			for sc := service.Binary; sc <= service.Length; sc++ {
				if tree.ValidateScenario(sc) != nil {
					continue
				}
				mode := tree.FilterModeFor(sc)
				got := collectCandidates(tree, embr, mode)
				// Every entry with positive service must be a candidate.
				checkEntry := func(e *Entry) {
					if e.Serve(sc, stops, psi) > 0 {
						found := false
						for _, si := range got[e.Traj.ID] {
							if si == e.SegIdx {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("%v/%v sc=%v: served entry %d/%d pruned",
								opts.Variant, opts.Ordering, sc, e.Traj.ID, e.SegIdx)
						}
					}
				}
				tree.Root().Walk(func(n *Node) {
					n.ForEachEntry(func(e *Entry) bool { checkEntry(e); return true })
				})
			}
		}
	}
}

func TestTreeUBDominatesAnyService(t *testing.T) {
	// For any facility, the root treeUB must dominate the total service,
	// and every node's treeUB must dominate the service obtainable from
	// entries in its subtree.
	users := randTrajectories(200, 5, 47, testBounds)
	psi := 60.0
	for _, opts := range allConfigs() {
		tree, err := Build(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		stops := randStops(12, 48, testBounds)
		for sc := service.Binary; sc <= service.Length; sc++ {
			var subtreeService func(n *Node) float64
			subtreeService = func(n *Node) float64 {
				var total float64
				n.ForEachEntry(func(e *Entry) bool {
					total += e.Serve(sc, stops, psi)
					return true
				})
				for q := 0; q < 4; q++ {
					if c := n.Child(q); c != nil {
						total += subtreeService(c)
					}
				}
				return total
			}
			var verify func(n *Node)
			verify = func(n *Node) {
				got := subtreeService(n)
				if got > n.TreeUB(sc)+1e-9 {
					t.Fatalf("%v/%v sc=%v: subtree service %v exceeds treeUB %v",
						opts.Variant, opts.Ordering, sc, got, n.TreeUB(sc))
				}
				for q := 0; q < 4; q++ {
					if c := n.Child(q); c != nil {
						verify(c)
					}
				}
			}
			verify(tree.Root())
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
		stops := randStops(1+rng.Intn(6), int64(trial)+500, geo.Rect{MaxX: 100, MaxY: 100})
		psi := rng.Float64() * 40
		for _, sc := range []service.Scenario{service.PointCount, service.Length} {
			var sum float64
			for i := 0; i < u.NumSegments(); i++ {
				e := newSegmentEntry(u, i, testBounds)
				sum += e.Serve(sc, stops, psi)
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

	tree, _ := Build(multi, Options{Variant: TwoPoint})
	if err := tree.ValidateScenario(service.PointCount); err == nil {
		t.Error("TwoPoint over multipoint data accepted PointCount")
	}
	if err := tree.ValidateScenario(service.Binary); err != nil {
		t.Errorf("TwoPoint Binary rejected: %v", err)
	}

	tree2, _ := Build(twoPt, Options{Variant: TwoPoint})
	for sc := service.Binary; sc <= service.Length; sc++ {
		if err := tree2.ValidateScenario(sc); err != nil {
			t.Errorf("TwoPoint over 2-point data rejected %v: %v", sc, err)
		}
	}

	tree3, _ := Build(multi, Options{Variant: FullTrajectory})
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
	mk := func(v Variant) *Tree {
		tr, _ := Build(users, Options{Variant: v})
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
	mk := func(v Variant) *Tree {
		tr, _ := Build(users, Options{Variant: v})
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
	// and the structure valid.
	pts := []geo.Point{geo.Pt(100.5, 100.5), geo.Pt(101, 101)}
	users := make([]*trajectory.Trajectory, 500)
	for i := range users {
		users[i] = trajectory.MustNew(trajectory.ID(i), pts)
	}
	tree, err := Build(users, Options{Variant: TwoPoint, Ordering: ZOrder, Beta: 4, MaxDepth: 10, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := tree.Stats(); st.MaxDepth > 10 {
		t.Errorf("depth %d exceeds MaxDepth", st.MaxDepth)
	}
}

func TestLeafSplitOnInsertOverflow(t *testing.T) {
	opts := Options{Variant: TwoPoint, Ordering: ZOrder, Beta: 4, Bounds: testBounds}
	tree, err := Build(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	users := randTrajectories(100, 2, 55, geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100})
	for _, u := range users {
		tree.Insert(u)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := tree.Stats(); st.Nodes <= 1 {
		t.Error("tree never split despite overflow")
	}
}

func TestEmptyTree(t *testing.T) {
	tree, err := Build(nil, Options{Variant: FullTrajectory, Ordering: ZOrder, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tree.Root().TreeUB(service.Binary) != 0 {
		t.Error("empty tree has nonzero UB")
	}
	tree.NodeCandidates(tree.Root(), testBounds, NeedBoth, func(*Entry) {
		t.Error("candidate from empty tree")
	})
}

func TestQuickRandomTreesKeepInvariants(t *testing.T) {
	// testing/quick drives random workload shapes (count, point counts,
	// beta, variant, ordering) through Build+Insert and checks the
	// structural invariants each time.
	f := func(seed int64, nRaw, maxPtsRaw, betaRaw uint8, variantRaw, orderingRaw uint8) bool {
		n := 20 + int(nRaw)%200
		maxPts := 2 + int(maxPtsRaw)%6
		beta := 2 + int(betaRaw)%30
		variant := Variant(int(variantRaw) % 3)
		ordering := Ordering(int(orderingRaw) % 2)
		users := randTrajectories(n, maxPts, seed, testBounds)
		tree, err := Build(users[:n/2], Options{
			Variant: variant, Ordering: ordering, Beta: beta, Bounds: testBounds,
		})
		if err != nil {
			t.Logf("build error: %v", err)
			return false
		}
		for _, u := range users[n/2:] {
			tree.Insert(u)
		}
		if err := tree.CheckInvariants(); err != nil {
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
