package quadtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
)

func randomItems(n int, seed int64, bounds geo.Rect) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			P: geo.Pt(
				bounds.MinX+rng.Float64()*bounds.Width(),
				bounds.MinY+rng.Float64()*bounds.Height(),
			),
			Data: uint64(i),
		}
	}
	return items
}

// newTree returns an empty tree over bounds with a small leaf capacity
// and depth bound, for the splitting cases.
func newTree(bounds geo.Rect, capacity, maxDepth int) *Tree {
	return build(bounds, nil, capacity, maxDepth)
}

// all returns the payloads of every item, sorted, through a circle that
// holds the whole root.
func all(t *Tree) []uint64 {
	b := t.bounds
	return collectCircle(t, geo.Pt(b.MinX, b.MinY), math.Hypot(b.Width(), b.Height()))
}

// countCircle returns the number of items within radius of center.
func countCircle(t *Tree, center geo.Point, radius float64) int {
	n := 0
	t.SearchCircle(center, radius, func(Item) bool { n++; return true })
	return n
}

// shape describes the tree's nodes, leaves, depth and items.
type shape struct {
	Nodes, Leaves, MaxDepth, Items int
}

func shapeOf(t *Tree) shape {
	var s shape
	var walk func(n *node)
	walk = func(n *node) {
		s.Nodes++
		if n.depth > s.MaxDepth {
			s.MaxDepth = n.depth
		}
		if n.children == nil {
			s.Leaves++
			s.Items += len(n.items)
			return
		}
		for q := 0; q < 4; q++ {
			walk(&n.children[q])
		}
	}
	walk(t.root)
	return s
}

func collectCircle(t *Tree, c geo.Point, rad float64) []uint64 {
	var out []uint64
	t.SearchCircle(c, rad, func(it Item) bool { out = append(out, it.Data); return true })
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func bruteCircle(items []Item, c geo.Point, rad float64) []uint64 {
	var out []uint64
	r2 := rad * rad
	for _, it := range items {
		if it.P.Dist2(c) <= r2 {
			out = append(out, it.Data)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSearchCircleMatchesBruteForce(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}
	items := randomItems(5000, 3, bounds)
	tree := build(bounds, items, 16, maxTreeDepth)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		c := geo.Pt(rng.Float64()*1000, rng.Float64()*1000)
		rad := rng.Float64() * 200
		got := collectCircle(tree, c, rad)
		want := bruteCircle(items, c, rad)
		if !equalU64(got, want) {
			t.Fatalf("circle %v r=%v: got %d items, want %d", c, rad, len(got), len(want))
		}
	}
}

func TestInsertIncremental(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	tree := newTree(bounds, 4, maxTreeDepth)
	items := randomItems(500, 5, bounds)
	for i, it := range items {
		tree.insert(it)
		if n := shapeOf(tree).Items; n != i+1 {
			t.Fatalf("%d items after %d inserts", n, i+1)
		}
	}
	got := all(tree)
	if len(got) != 500 {
		t.Fatalf("full-rect search returned %d items, want 500", len(got))
	}
}

func TestDuplicatePointsDoNotBlowUp(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	tree := newTree(bounds, 2, 8)
	p := geo.Pt(3.33, 7.77)
	for i := 0; i < 1000; i++ {
		tree.insert(Item{P: p, Data: uint64(i)})
	}
	st := shapeOf(tree)
	if st.MaxDepth > 8 {
		t.Errorf("depth %d exceeded MaxDepth 8", st.MaxDepth)
	}
	if got := countCircle(tree, p, 0.001); got != 1000 {
		t.Errorf("CountCircle at duplicate point = %d, want 1000", got)
	}
}

func TestOutOfBoundsPointsClamp(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}
	tree := newTree(bounds, leafCapacity, maxTreeDepth)
	tree.insert(Item{P: geo.Pt(-5, 50), Data: 42})
	if got := all(tree); len(got) != 1 || got[0] != 42 {
		t.Error("clamped out-of-bounds item not retrievable")
	}
}

func TestEarlyTermination(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	items := randomItems(1000, 6, bounds)
	tree := Build(bounds, items)
	calls := 0
	tree.SearchCircle(geo.Pt(50, 50), 1000, func(Item) bool {
		calls++
		return calls < 7
	})
	if calls != 7 {
		t.Errorf("circle visitor called %d times, want exactly 7", calls)
	}
}

func TestCountCircle(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	tree := newTree(bounds, leafCapacity, maxTreeDepth)
	// Ring of 8 points at distance 5 from center plus one at distance 20.
	c := geo.Pt(50, 50)
	for i := 0; i < 8; i++ {
		tree.insert(Item{P: geo.Pt(50+5, 50), Data: uint64(i)})
	}
	tree.insert(Item{P: geo.Pt(70, 50), Data: 99})
	if got := countCircle(tree, c, 5.0); got != 8 {
		t.Errorf("CountCircle(r=5) = %d, want 8 (boundary inclusive)", got)
	}
	if got := countCircle(tree, c, 25); got != 9 {
		t.Errorf("CountCircle(r=25) = %d, want 9", got)
	}
	if got := countCircle(tree, c, 1); got != 0 {
		t.Errorf("CountCircle(r=1) = %d, want 0", got)
	}
}

func TestStats(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 100, MaxY: 100}
	items := randomItems(2000, 7, bounds)
	tree := build(bounds, items, 8, maxTreeDepth)
	st := shapeOf(tree)
	if st.Items != 2000 {
		t.Errorf("Items = %d, want 2000", st.Items)
	}
	if st.Leaves == 0 || st.Nodes < st.Leaves {
		t.Errorf("implausible stats %+v", st)
	}
	// Internal nodes = (Nodes-Leaves); a quadtree has Nodes = 4*internal+1.
	if st.Nodes != 4*(st.Nodes-st.Leaves)+1 {
		t.Errorf("node arithmetic broken: %+v", st)
	}
}

func TestBuildGrowsBounds(t *testing.T) {
	bounds := geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}
	items := []Item{{P: geo.Pt(500, 500), Data: 1}, {P: geo.Pt(-10, 3), Data: 2}}
	tree := Build(bounds, items)
	if got := all(tree); len(got) != 2 {
		t.Errorf("Build lost items outside initial bounds: found %d", len(got))
	}
}

func TestEmptyTreeSearches(t *testing.T) {
	tree := Build(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, nil)
	tree.SearchCircle(geo.Pt(0.5, 0.5), 10, func(Item) bool {
		t.Error("visitor called on empty tree")
		return true
	})
	if n := shapeOf(tree).Items; n != 0 {
		t.Errorf("empty tree holds %d items", n)
	}
}
