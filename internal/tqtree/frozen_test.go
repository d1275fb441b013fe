package tqtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func frozenTestUsers(n int, seed int64) []*trajectory.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	users := make([]*trajectory.Trajectory, 0, n)
	for i := 0; i < n; i++ {
		pts := make([]geo.Point, 2+rng.Intn(4))
		for j := range pts {
			pts[j] = geo.Pt(rng.Float64()*10000, rng.Float64()*10000)
		}
		users = append(users, trajectory.MustNew(trajectory.ID(i), pts))
	}
	return users
}

// TestFreezeStructure checks the built index's counts against its corpus
// and its invariants, and that the column view round-trips through
// FrozenFromColumns.
func TestFreezeStructure(t *testing.T) {
	for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
		for _, o := range []Ordering{Basic, ZOrder} {
			users := frozenTestUsers(700, 3)
			f, err := BuildFrozen(users, Options{Variant: v, Ordering: o, Beta: 16})
			if err != nil {
				t.Fatal(err)
			}
			entries := len(users)
			if v == Segmented {
				entries = 0
				for _, u := range users {
					entries += u.NumSegments()
				}
			}
			if f.NumEntries() != entries || f.NumTrajectories() != len(users) {
				t.Fatalf("%v/%v: %d entries and %d trajectories, want %d and %d", v, o, f.NumEntries(), f.NumTrajectories(), entries, len(users))
			}
			if err := checkInvariants(f); err != nil {
				t.Fatalf("%v/%v: %v", v, o, err)
			}

			// The columns must reassemble without loss.
			f2, err := FrozenFromColumns(diskColumns(f), f.Table())
			if err != nil {
				t.Fatalf("%v/%v: FrozenFromColumns: %v", v, o, err)
			}
			assertFrozenEqual(t, fmt.Sprintf("%v/%v: columns round trip", v, o), f2, f)
			c := f.Columns()
			if (c.EntMBR != nil) != v.HoldsEntryMBRs() || (c.EntTraj != nil) != v.HoldsEntryOrdinals() || (c.EntSeg != nil) != v.HoldsEntryOrdinals() ||
				(c.EntFirst != nil) != v.HoldsEntryOrdinals() || (c.EntLast != nil) != v.HoldsEntryOrdinals() {
				t.Fatalf("%v/%v: holds entry columns MBR %v, ordinals %v, segments %v, endpoints %v/%v", v, o,
					c.EntMBR != nil, c.EntTraj != nil, c.EntSeg != nil, c.EntFirst != nil, c.EntLast != nil)
			}
		}
	}
}

// diskColumns is f's columns as a snapshot records them: EntFirst and
// EntLast derived from the table where the base does not hold them.
func diskColumns(f *Frozen) FrozenColumns {
	c := f.Columns()
	if c.EntFirst == nil {
		n := f.NumEntries()
		c.EntFirst, c.EntLast = make([]geo.Point, n), make([]geo.Point, n)
		for e := range n {
			c.EntFirst[e], c.EntLast[e] = f.EntryEnds(int32(e))
		}
	}
	return c
}

// TestFrozenFromColumnsRejectsCorruption spot-checks the structural
// validation: broken BFS layout, dangling offsets, a Segmented entry
// naming a row or a segment that does not exist, an endpoint that is not
// the table's, an entry column the variant holds missing or one it does
// not hold present, and a table row no entry references must all error.
func TestFrozenFromColumnsRejectsCorruption(t *testing.T) {
	users := frozenTestUsers(500, 5)
	frozen := map[Variant]*Frozen{}
	for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
		f, err := BuildFrozen(users, Options{Variant: v, Ordering: ZOrder, Beta: 16})
		if err != nil {
			t.Fatal(err)
		}
		frozen[v] = f
	}
	// mutate corrupts a fresh copy of the columns, so cases stay
	// independent.
	mutate := func(v Variant, name string, fn func(c *FrozenColumns)) {
		t.Helper()
		f := frozen[v]
		c := diskColumns(f)
		c.EntFirst, c.EntLast = slices.Clone(c.EntFirst), slices.Clone(c.EntLast)
		c.ChildBase = slices.Clone(c.ChildBase)
		c.ChildCount = slices.Clone(c.ChildCount)
		c.EntryOff = slices.Clone(c.EntryOff)
		c.EntTraj = slices.Clone(c.EntTraj)
		c.EntSeg = slices.Clone(c.EntSeg)
		if _, err := FrozenFromColumns(c, f.Table()); err != nil {
			t.Fatalf("%v: %s: the uncorrupted columns: %v", v, name, err)
		}
		fn(&c)
		if _, err := FrozenFromColumns(c, f.Table()); err == nil {
			t.Fatalf("%v: %s: corruption accepted", v, name)
		}
	}
	for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
		mutate(v, "cyclic child base", func(c *FrozenColumns) { c.ChildBase[1] = 0 })
		mutate(v, "child count overflow", func(c *FrozenColumns) { c.ChildCount[0] = 5 })
		mutate(v, "entry offset overflow", func(c *FrozenColumns) { c.EntryOff[len(c.EntryOff)-1]++ })
		mutate(v, "entry offset regression", func(c *FrozenColumns) {
			c.EntryOff[1] = c.EntryOff[2] + 1
		})
		mutate(v, "an endpoint column short", func(c *FrozenColumns) { c.EntLast = c.EntLast[1:] })
		mutate(v, "an endpoint column missing", func(c *FrozenColumns) { c.EntFirst, c.EntLast = nil, nil })
		mutate(v, "a first point forged", func(c *FrozenColumns) { c.EntFirst[len(c.EntFirst)/2].X += 1 })
		mutate(v, "a last point forged", func(c *FrozenColumns) { c.EntLast[0].Y = math.Nextafter(c.EntLast[0].Y, math.Inf(1)) })
		mutate(v, "two entries' endpoints swapped", func(c *FrozenColumns) {
			c.EntFirst[0], c.EntFirst[1] = c.EntFirst[1], c.EntFirst[0]
			c.EntLast[0], c.EntLast[1] = c.EntLast[1], c.EntLast[0]
		})
	}
	tab := frozen[Segmented].Table()
	mutate(Segmented, "trajectory out of range", func(c *FrozenColumns) { c.EntTraj[0] = int32(tab.Len()) })
	mutate(Segmented, "trajectory negative", func(c *FrozenColumns) { c.EntTraj[0] = -1 })
	mutate(Segmented, "segment out of range", func(c *FrozenColumns) { c.EntSeg[0] = 1 << 20 })
	mutate(Segmented, "segment below -1", func(c *FrozenColumns) { c.EntSeg[0] = -2 })
	mutate(Segmented, "a segment column short", func(c *FrozenColumns) { c.EntSeg = c.EntSeg[1:] })
	mutate(Segmented, "an MBR column it does not hold", func(c *FrozenColumns) { c.EntMBR = make([]geo.Rect, len(c.EntFirst)) })
	mutate(FullTrajectory, "its MBR column missing", func(c *FrozenColumns) { c.EntMBR = nil })
	for _, v := range []Variant{TwoPoint, FullTrajectory} {
		mutate(v, "ordinal columns it does not hold", func(c *FrozenColumns) {
			c.EntTraj, c.EntSeg = make([]int32, len(c.EntFirst)), make([]int32, len(c.EntFirst))
		})
		mutate(v, "an empty segment column it does not hold", func(c *FrozenColumns) { c.EntSeg = []int32{} })
	}
	mutate(TwoPoint, "an MBR column it does not hold", func(c *FrozenColumns) { c.EntMBR = make([]geo.Rect, len(c.EntFirst)) })
	for _, v := range []Variant{TwoPoint, FullTrajectory} {
		// A table row no entry references.
		f := frozen[v]
		tab := f.Table()
		tb := trajectory.NewTableBuilder(tab.Len()+1, tab.TotalPoints()+2)
		for i := int32(0); int(i) < tab.Len(); i++ {
			var u trajectory.Trajectory
			tab.View(i, &u)
			tb.Append(&u)
		}
		tb.Append(trajectory.MustNew(1<<30, []geo.Point{{}, {X: 1}}))
		extra, err := tb.Build()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := FrozenFromColumns(diskColumns(f), extra); err == nil {
			t.Fatalf("%v: a table row no entry references accepted", v)
		}
	}
}

// TestFreezeDoesNotRetainTree proves BuildFrozen copies rather than
// aliases its input: once the caller drops the trajectories, they become
// garbage even while the index stays live. A finalizer on one of them
// observes the collection.
func TestFreezeDoesNotRetainTree(t *testing.T) {
	collected := make(chan struct{})
	f := func() *Frozen {
		users := frozenTestUsers(2000, 9)
		fz, err := BuildFrozen(users, Options{Ordering: ZOrder})
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(users[0], func(*trajectory.Trajectory) { close(collected) })
		return fz
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(f)
			return
		case <-deadline:
			t.Fatal("input trajectory not collected: BuildFrozen retains its input")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// assertFrozenEqual fails unless got and want have deep-equal columns and
// tables that agree row by row.
func assertFrozenEqual(t *testing.T, name string, got, want *Frozen) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns(), want.Columns()) {
		t.Fatalf("%s: columns differ", name)
	}
	if got.Table().HasMultipoint() != want.Table().HasMultipoint() {
		t.Fatalf("%s: multipoint %v, want %v", name, got.Table().HasMultipoint(), want.Table().HasMultipoint())
	}
	gt, wt := got.Table(), want.Table()
	if gt.Len() != wt.Len() {
		t.Fatalf("%s: table has %d rows, want %d", name, gt.Len(), wt.Len())
	}
	for i := int32(0); int(i) < wt.Len(); i++ {
		if gt.ID(i) != wt.ID(i) || gt.Length(i) != wt.Length(i) || !slices.Equal(gt.Points(i), wt.Points(i)) {
			t.Fatalf("%s: table row %d differs", name, i)
		}
	}
}

// TestBuildFrozenMatchesFreeze: BuildFrozen holds every invariant
// checkInvariants knows, and a parallel build writes the serial one's
// columns, for every variant, ordering, β and depth bound, over a uniform
// corpus and the shapes the plan must get right — every point in one cell
// (the depth-limit leaf), every entry straddling the root centre (nothing
// routes), one user, none.
func TestBuildFrozenMatchesFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cell := make([]*trajectory.Trajectory, 300)
	for i := range cell {
		pts := make([]geo.Point, 2+rng.Intn(3))
		for j := range pts {
			pts[j] = geo.Pt(10+rng.Float64()*1e-9, 10+rng.Float64()*1e-9)
		}
		cell[i] = trajectory.MustNew(trajectory.ID(i), pts)
	}
	straddle := make([]*trajectory.Trajectory, 300)
	for i := range straddle {
		d := 1 + rng.Float64()*400
		straddle[i] = trajectory.MustNew(trajectory.ID(i), []geo.Point{geo.Pt(500-d, 500-d), geo.Pt(500+d, 500+d*rng.Float64())})
	}
	corpora := map[string][]*trajectory.Trajectory{
		"uniform":  randTrajectories(3000, 5, 101, testBounds),
		"cell":     cell,
		"straddle": straddle,
		"one":      randTrajectories(1, 4, 102, testBounds),
		"empty":    nil,
	}
	for cname, users := range corpora {
		for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
			for _, o := range []Ordering{Basic, ZOrder} {
				for _, beta := range []int{1, 8, 64} {
					for _, depth := range []int{1, 3, 0} {
						var serial *Frozen
						for _, par := range []int{1, 4} {
							opts := Options{Variant: v, Ordering: o, Beta: beta, MaxDepth: depth, Bounds: testBounds, Parallelism: par}
							name := fmt.Sprintf("%s/%v/%v/b%d/d%d/p%d", cname, v, o, beta, depth, par)
							f, err := BuildFrozen(users, opts)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if err := checkInvariants(f); err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if serial == nil {
								serial = f
							} else {
								assertFrozenEqual(t, name, f, serial)
							}
						}
					}
				}
			}
		}
	}
}

// TestBuildFrozenRejectsDuplicateIDs: BuildFrozen rejects a corpus holding
// two trajectories with one ID.
func TestBuildFrozenRejectsDuplicateIDs(t *testing.T) {
	users := randTrajectories(200, 4, 103, testBounds)
	users[150] = trajectory.MustNew(users[17].ID, users[150].Points)
	for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
		opts := Options{Variant: v, Ordering: ZOrder, Beta: 8}
		if _, err := BuildFrozen(users, opts); err == nil || !strings.Contains(err.Error(), "duplicate id") {
			t.Fatalf("%v: BuildFrozen over a duplicate id: %v", v, err)
		}
	}
}

// TestBuildFrozenAllocs pins BuildFrozen's allocation count: a fixed
// number of columns and buffers, not a count that grows with the corpus —
// serially and at Parallelism 2, over two-point trips and segmented
// multipoint trajectories.
func TestBuildFrozenAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under -race")
	}
	for _, tc := range []struct {
		name   string
		maxPts int
		opts   Options
	}{
		{"twopoint", 2, Options{Ordering: ZOrder, Bounds: testBounds, Parallelism: 1}},
		{"twopoint/parallelism-2", 2, Options{Ordering: ZOrder, Bounds: testBounds, Parallelism: 2}},
		{"segmented", 4, Options{Variant: Segmented, Ordering: ZOrder, Bounds: testBounds, Parallelism: 1}},
	} {
		allocs := func(n int) float64 {
			users := randTrajectories(n, tc.maxPts, 104, testBounds)
			return testing.AllocsPerRun(1, func() {
				if _, err := BuildFrozen(users, tc.opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		small, large := allocs(20000), allocs(200000)
		t.Logf("%s: BuildFrozen allocations: %.0f at 20k users, %.0f at 200k", tc.name, small, large)
		const bound = 60
		if small > bound || large > bound {
			t.Errorf("%s: BuildFrozen allocations %.0f / %.0f, pinned at <= %d", tc.name, small, large, bound)
		}
		if large-small >= 50 {
			t.Errorf("%s: BuildFrozen allocations grow with the corpus: %.0f at 20k, %.0f at 200k", tc.name, small, large)
		}
	}
}

// TestBuildFrozenBytes pins the bytes one serial Z-ordered build of
// two-point trips allocates an entry, the index it returns included: the
// slab, the route, the permutation and its scratch, the sort keys, the
// columns and the table. 175 bytes an entry at 200k users (200 when the
// slab held 120-byte entries and every level re-routed them); the limit
// leaves 10 for the columns' append growth to vary with the tree.
func TestBuildFrozenBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation pins skip under -race")
	}
	const n = 200000
	users := randTrajectories(n, 2, 104, testBounds)
	opts := Options{Ordering: ZOrder, Bounds: testBounds, Parallelism: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f, err := BuildFrozen(users, opts)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(f)
	perEntry := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("BuildFrozen allocates %.1f bytes an entry at %d two-point users", perEntry, n)
	const bound = 185
	if perEntry > bound {
		t.Errorf("BuildFrozen allocates %.1f bytes an entry, pinned at <= %d", perEntry, bound)
	}
}
