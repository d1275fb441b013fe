package tqtree

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
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

// TestFreezeStructure checks the frozen mirror agrees with the tree on
// the aggregate counts and per-node shape, and that the column view
// round-trips through FrozenFromColumns.
func TestFreezeStructure(t *testing.T) {
	for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
		for _, o := range []Ordering{Basic, ZOrder} {
			users := frozenTestUsers(700, 3)
			tree, err := Build(users, Options{Variant: v, Ordering: o, Beta: 16})
			if err != nil {
				t.Fatal(err)
			}
			f, err := Freeze(tree)
			if err != nil {
				t.Fatal(err)
			}
			if f.NumEntries() != tree.NumEntries() {
				t.Fatalf("%v/%v: frozen %d entries, tree %d", v, o, f.NumEntries(), tree.NumEntries())
			}
			if f.NumTrajectories() != tree.NumTrajectories() {
				t.Fatalf("%v/%v: frozen %d trajectories, tree %d", v, o, f.NumTrajectories(), tree.NumTrajectories())
			}
			nodes := 0
			tree.Root().Walk(func(n *Node) { nodes++ })
			if f.NumNodes() != nodes {
				t.Fatalf("%v/%v: frozen %d nodes, tree %d", v, o, f.NumNodes(), nodes)
			}
			// Root shape must agree.
			root := tree.Root()
			if f.Rect(0) != root.Rect() || f.IsLeaf(0) != root.IsLeaf() || f.ListLen(0) != root.ListLen() {
				t.Fatalf("%v/%v: root shape mismatch", v, o)
			}
			for sc := service.Scenario(0); int(sc) < service.NumScenarios; sc++ {
				if f.TreeUB(0, sc) != root.TreeUB(sc) || f.OwnUB(0, sc) != root.OwnUB(sc) {
					t.Fatalf("%v/%v: root upper bounds mismatch", v, o)
				}
			}

			// Column view must reassemble without loss.
			f2, err := FrozenFromColumns(f.Columns(), f.Table())
			if err != nil {
				t.Fatalf("%v/%v: FrozenFromColumns: %v", v, o, err)
			}
			if f2.NumNodes() != f.NumNodes() || f2.NumEntries() != f.NumEntries() ||
				f2.HasMultipoint() != f.HasMultipoint() {
				t.Fatalf("%v/%v: columns round-trip mismatch", v, o)
			}
		}
	}
}

// TestFrozenFromColumnsRejectsCorruption spot-checks the structural
// validation: broken BFS layout, dangling offsets, and out-of-range
// trajectory references must all error.
func TestFrozenFromColumnsRejectsCorruption(t *testing.T) {
	users := frozenTestUsers(500, 5)
	tree, err := Build(users, Options{Ordering: ZOrder, Beta: 16})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Freeze(tree)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, fn func(c *FrozenColumns)) {
		c := f.Columns()
		// Deep-copy the slices the mutation touches so cases stay
		// independent.
		c.ChildBase = append([]int32(nil), c.ChildBase...)
		c.ChildCount = append([]int32(nil), c.ChildCount...)
		c.EntryOff = append([]int32(nil), c.EntryOff...)
		c.EntTraj = append([]int32(nil), c.EntTraj...)
		c.EntSeg = append([]int32(nil), c.EntSeg...)
		fn(&c)
		if _, err := FrozenFromColumns(c, f.Table()); err == nil {
			t.Fatalf("%s: corruption accepted", name)
		}
	}
	mutate("cyclic child base", func(c *FrozenColumns) { c.ChildBase[1] = 0 })
	mutate("child count overflow", func(c *FrozenColumns) { c.ChildCount[0] = 5 })
	mutate("entry offset overflow", func(c *FrozenColumns) { c.EntryOff[len(c.EntryOff)-1]++ })
	mutate("entry offset regression", func(c *FrozenColumns) {
		c.EntryOff[1] = c.EntryOff[2] + 1
	})
	mutate("trajectory out of range", func(c *FrozenColumns) { c.EntTraj[0] = int32(f.Table().Len()) })
	mutate("segment out of range", func(c *FrozenColumns) { c.EntSeg[0] = 1 << 20 })
}

// TestFreezeDoesNotRetainTree proves Freeze copies rather than aliases
// the mutable tree: after dropping the tree, its root node becomes
// garbage even while the frozen index stays live. A finalizer on the
// root observes the collection.
func TestFreezeDoesNotRetainTree(t *testing.T) {
	users := frozenTestUsers(2000, 9)
	collected := make(chan struct{})
	f := func() *Frozen {
		tree, err := Build(users, Options{Ordering: ZOrder})
		if err != nil {
			t.Fatal(err)
		}
		fz, err := Freeze(tree)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(tree.Root(), func(*Node) { close(collected) })
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
			t.Fatal("tree root not collected: Freeze retains the mutable tree")
		case <-time.After(10 * time.Millisecond):
		}
	}
}
