// Package quadtree implements a PR (point-region) quadtree over planar
// points. It is the "traditional spatial index" the paper's baseline (BL)
// uses: user-trajectory points are indexed here, and for each candidate
// facility a circular range query around every stop retrieves the served
// points.
package quadtree

import (
	"github.com/trajcover/trajcover/internal/geo"
)

// Item is a point with an opaque payload. The query package packs
// (trajectory id, point index) into Data.
type Item struct {
	P    geo.Point
	Data uint64
}

// leafCapacity is the number of items a leaf holds before it splits, and
// maxTreeDepth bounds splitting so duplicate or near-duplicate points
// cannot force it forever: leaves at maxTreeDepth grow instead.
const (
	leafCapacity = 32
	maxTreeDepth = 24
)

// Tree is a PR quadtree, built by Build.
type Tree struct {
	root     *node
	bounds   geo.Rect
	capacity int
	maxDepth int
}

type node struct {
	rect     geo.Rect
	items    []Item // leaf payload; nil for internal nodes after split
	children *[4]node
	depth    int
}

// Build constructs a tree containing all items, growing bounds to cover
// them if necessary.
func Build(bounds geo.Rect, items []Item) *Tree {
	return build(bounds, items, leafCapacity, maxTreeDepth)
}

// build is Build with a given leaf capacity and depth bound.
func build(bounds geo.Rect, items []Item, capacity, maxDepth int) *Tree {
	for _, it := range items {
		bounds = bounds.ExtendPoint(it.P)
	}
	t := &Tree{root: &node{rect: bounds}, bounds: bounds, capacity: capacity, maxDepth: maxDepth}
	for _, it := range items {
		t.insert(it)
	}
	return t
}

// insert adds an item. Points outside the root bounds are clamped into
// them (the tree never rebalances its root).
func (t *Tree) insert(it Item) {
	if !t.bounds.Contains(it.P) {
		it.P = clamp(it.P, t.bounds)
	}
	n := t.root
	for n.children != nil {
		n = &n.children[n.rect.QuadrantOf(it.P)]
	}
	n.items = append(n.items, it)
	if len(n.items) > t.capacity && n.depth < t.maxDepth {
		t.split(n)
	}
}

func clamp(p geo.Point, r geo.Rect) geo.Point {
	if p.X < r.MinX {
		p.X = r.MinX
	}
	if p.X > r.MaxX {
		p.X = r.MaxX
	}
	if p.Y < r.MinY {
		p.Y = r.MinY
	}
	if p.Y > r.MaxY {
		p.Y = r.MaxY
	}
	return p
}

func (t *Tree) split(n *node) {
	n.children = &[4]node{}
	for q := 0; q < 4; q++ {
		n.children[q] = node{rect: n.rect.Quadrant(q), depth: n.depth + 1}
	}
	items := n.items
	n.items = nil
	for _, it := range items {
		child := &n.children[n.rect.QuadrantOf(it.P)]
		child.items = append(child.items, it)
	}
	// A pathological split can put everything in one child; recurse until
	// depth or capacity stops it.
	for q := 0; q < 4; q++ {
		c := &n.children[q]
		if len(c.items) > t.capacity && c.depth < t.maxDepth {
			t.split(c)
		}
	}
}

// SearchCircle calls fn for every item within radius of center (boundary
// inclusive). Iteration stops early if fn returns false.
func (t *Tree) SearchCircle(center geo.Point, radius float64, fn func(Item) bool) {
	r2 := radius * radius
	t.searchCircle(t.root, center, radius, r2, fn)
}

func (t *Tree) searchCircle(n *node, c geo.Point, r, r2 float64, fn func(Item) bool) bool {
	if n.rect.Dist2ToPoint(c) > r2 {
		return true
	}
	if n.children == nil {
		for _, it := range n.items {
			if it.P.Dist2(c) <= r2 {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for q := 0; q < 4; q++ {
		if !t.searchCircle(&n.children[q], c, r, r2, fn) {
			return false
		}
	}
	return true
}
