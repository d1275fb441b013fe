package tqtree

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func TestDeleteRemovesEntries(t *testing.T) {
	users := randTrajectories(300, 5, 61, testBounds)
	for _, opts := range allConfigs() {
		opts.Bounds = testBounds
		t.Run(opts.Variant.String()+"/"+opts.Ordering.String(), func(t *testing.T) {
			tree, err := Build(users, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Delete every other trajectory.
			for i := 0; i < len(users); i += 2 {
				if !tree.Delete(users[i]) {
					t.Fatalf("Delete(%d) did not find all entries", users[i].ID)
				}
			}
			if err := tree.CheckInvariantsAfterDelete(); err != nil {
				t.Fatal(err)
			}
			if tree.NumTrajectories() != len(users)/2 {
				t.Errorf("NumTrajectories = %d, want %d", tree.NumTrajectories(), len(users)/2)
			}
			// Deleting again must report not-found.
			if tree.Delete(users[0]) {
				t.Error("second Delete reported success")
			}
		})
	}
}

// CheckInvariantsAfterDelete relaxes the exact-count check (numEntries is
// tracked) but keeps structure and bound consistency.
func (t *Tree) CheckInvariantsAfterDelete() error {
	return t.CheckInvariants()
}

func TestDeleteMatchesFreshBuild(t *testing.T) {
	users := randTrajectories(400, 2, 62, testBounds)
	opts := Options{Variant: TwoPoint, Ordering: ZOrder, Beta: 8, Bounds: testBounds}
	tree, err := Build(users, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[:200] {
		if !tree.Delete(u) {
			t.Fatalf("Delete(%d) failed", u.ID)
		}
	}
	fresh, err := Build(users[200:], opts)
	if err != nil {
		t.Fatal(err)
	}
	// Service upper bounds and entry totals must match the fresh tree.
	if tree.NumEntries() != fresh.NumEntries() {
		t.Errorf("entries = %d, fresh = %d", tree.NumEntries(), fresh.NumEntries())
	}
	for sc := service.Binary; sc <= service.Length; sc++ {
		a, b := tree.Root().TreeUB(sc), fresh.Root().TreeUB(sc)
		if math.Abs(a-b) > 1e-6*(1+b) {
			t.Errorf("treeUB[%v] = %v, fresh = %v", sc, a, b)
		}
	}
	// Every surviving entry must still be served identically: compare
	// candidate sets for a probe EMBR.
	stops := randStops(10, 63, testBounds)
	embr := geo.RectOf(stops).Expand(40)
	got := collectCandidates(tree, embr, NeedBoth)
	want := collectCandidates(fresh, embr, NeedBoth)
	if len(got) != len(want) {
		t.Errorf("candidates after delete = %d users, fresh = %d", len(got), len(want))
	}
	for id := range want {
		if len(got[id]) != len(want[id]) {
			t.Errorf("user %d candidate entries differ", id)
		}
	}
}

func TestDeleteInterleavedWithInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	opts := Options{Variant: Segmented, Ordering: ZOrder, Beta: 8, Bounds: testBounds}
	tree, err := Build(nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	live := map[trajectory.ID]*trajectory.Trajectory{}
	nextID := trajectory.ID(0)
	for step := 0; step < 2000; step++ {
		if rng.Float64() < 0.6 || len(live) == 0 {
			u := randTrajectories(1, 4, int64(step)+1000, testBounds)[0]
			u = trajectory.MustNew(nextID, u.Points)
			nextID++
			tree.Insert(u)
			live[u.ID] = u
		} else {
			// Delete a random live trajectory.
			for id, u := range live {
				if !tree.Delete(u) {
					t.Fatalf("step %d: Delete(%d) failed", step, id)
				}
				delete(live, id)
				break
			}
		}
	}
	if err := tree.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	wantEntries := 0
	for _, u := range live {
		wantEntries += u.NumSegments()
	}
	if tree.NumEntries() != wantEntries {
		t.Errorf("NumEntries = %d, want %d", tree.NumEntries(), wantEntries)
	}
}

func TestDeleteUnknownTrajectory(t *testing.T) {
	users := randTrajectories(50, 2, 65, testBounds)
	tree, err := Build(users, Options{Variant: TwoPoint, Ordering: ZOrder, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	ghost := trajectory.MustNew(9999, []geo.Point{geo.Pt(1, 1), geo.Pt(2, 2)})
	if tree.Delete(ghost) {
		t.Error("Delete of unknown trajectory reported success")
	}
	if tree.NumTrajectories() != 50 {
		t.Error("unknown delete changed trajectory count")
	}
}

// TestSplitLeafReleasesDrainedEntries: a leaf nothing can route out of —
// every entry spans the centre of the root's quadrant 0 — is a window on
// the build's entry slab, which quadrant 3's list keeps alive. Inserts
// after some deletes make it split (and stay a leaf) over and over; once
// its trajectories are deleted, none may stay reachable through a stale
// copy in the slab its first split drained.
func TestSplitLeafReleasesDrainedEntries(t *testing.T) {
	for _, o := range []Ordering{Basic, ZOrder} {
		t.Run(o.String(), func(t *testing.T) {
			var freed atomic.Int64
			var straddlers, others []*trajectory.Trajectory
			for i := 0; i < 160; i++ {
				d := 1 + float64(i)/2
				u := trajectory.MustNew(trajectory.ID(i), []geo.Point{geo.Pt(250-d, 250-d), geo.Pt(250+d, 250+d)})
				runtime.SetFinalizer(u, func(*trajectory.Trajectory) { freed.Add(1) })
				straddlers = append(straddlers, u)
			}
			for i := 0; i < 20; i++ {
				x := 700 + 10*float64(i)
				others = append(others, trajectory.MustNew(trajectory.ID(1000+i), []geo.Point{geo.Pt(x, 800), geo.Pt(x+5, 805)}))
			}
			tree, err := Build(append(straddlers[:100:100], others...), Options{Ordering: o, Beta: 8, Bounds: testBounds})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range straddlers[:50] {
				tree.Delete(u)
			}
			for _, u := range straddlers[100:] {
				tree.Insert(u)
			}
			if err := tree.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			for _, u := range straddlers[50:] {
				if !tree.Delete(u) {
					t.Fatalf("Delete(%d) found nothing", u.ID)
				}
			}
			straddlers = nil
			deadline := time.Now().Add(10 * time.Second)
			for freed.Load() < 160 && time.Now().Before(deadline) {
				runtime.GC()
				time.Sleep(10 * time.Millisecond)
			}
			if got := freed.Load(); got != 160 {
				t.Fatalf("%d of 160 deleted trajectories collected", got)
			}
			runtime.KeepAlive(tree)
		})
	}
}
