package tqtree

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// checkInvariants verifies, over f's columns, the structural invariants
// the query algorithms rely on and FrozenFromColumns does not check,
// returning the first violation found. It is O(entries + nodes).
//
// Invariants:
//  1. Every entry is stored exactly once: each trajectory as one whole
//     entry, or (Segmented) once per segment, and the entry columns hold
//     its geometry.
//  2. An entry's routing rectangle lies in its node's cell, and no child
//     could hold an entry kept at an internal node.
//  3. ownUB equals the sum of the node's entries' per-scenario bounds;
//     treeUB equals ownUB plus the children's treeUB. Each child's cell is
//     a quadrant of its parent's, and no node is deeper than MaxDepth.
//  4. A Z-ordered list is sorted by (start, end) z-id, in buckets of at
//     most β entries whose start-code ranges ascend without overlapping
//     and whose aggregate columns are the buckets' own.
func checkInvariants(f *Frozen) error {
	ents, err := rebuildEntries(f)
	if err != nil {
		return err
	}
	_, err = checkNode(f, ents, 0, 0)
	return err
}

// rebuildEntries checks invariant 1 and returns the slab as the plan held
// it, re-derived from the table: geometry, z-ids and per-scenario bounds.
func rebuildEntries(f *Frozen) ([]Entry, error) {
	tab := f.Table()
	want := tab.Len()
	if f.variant == Segmented {
		want = tab.TotalPoints() - tab.Len()
	}
	if f.NumEntries() != want {
		return nil, fmt.Errorf("%d entries stored, the table's %d trajectories make %d", f.NumEntries(), tab.Len(), want)
	}
	seen := make(map[[2]int32]bool, want)
	ents := make([]Entry, want)
	views := make([]trajectory.Trajectory, tab.Len())
	for i := range views {
		tab.View(int32(i), &views[i])
	}
	for e := range ents {
		ti, seg := f.EntryOrdinal(int32(e)), f.EntrySegment(int32(e))
		key := [2]int32{ti, seg}
		if seen[key] || (seg < 0) != (f.variant != Segmented) {
			return nil, fmt.Errorf("entry %d: trajectory %d segment %d stored twice or as the wrong kind", e, ti, seg)
		}
		seen[key] = true
		if seg < 0 {
			ents[e] = newEntry(&views[ti], f.bounds)
		} else {
			ents[e] = newSegmentEntry(&views[ti], int(seg), f.bounds)
		}
		if ents[e].first != f.entFirst[e] || ents[e].last != f.entLast[e] || f.entMBR != nil && ents[e].mbr != f.entMBR[e] {
			return nil, fmt.Errorf("entry %d: columns do not hold trajectory %d segment %d", e, ti, seg)
		}
	}
	return ents, nil
}

// checkNode checks invariants 2–4 on the subtree of node n at depth and
// returns its recomputed treeUB.
func checkNode(f *Frozen, ents []Entry, n int32, depth int) (tree [service.NumScenarios]float64, err error) {
	if depth > f.maxDepth {
		return tree, fmt.Errorf("node %d at depth %d exceeds MaxDepth %d", n, depth, f.maxDepth)
	}
	rect := f.Rect(n)
	lo, hi := f.entryOff[n], f.entryOff[n+1]
	var own [service.NumScenarios]float64
	for e := lo; e < hi; e++ {
		if rr := routingRect(f.variant, &ents[e]); !rect.ContainsRect(rr) {
			return tree, fmt.Errorf("node %d: entry %d routing rect %v outside the cell %v", n, e, rr, rect)
		}
		if q, ok := routeQuadrant(f.variant, rect, &ents[e]); ok && !f.IsLeaf(n) {
			return tree, fmt.Errorf("node %d: entry %d kept at an internal node but routable to quadrant %d", n, e, q)
		}
		for sc := range own {
			own[sc] += ents[e].ub[sc]
		}
	}
	if f.ordering == ZOrder {
		if err := checkBuckets(f, ents, n); err != nil {
			return tree, err
		}
	}
	tree = own
	q := 0
	for i := 0; i < 4; i++ {
		c := f.Child(n, i)
		if c < 0 {
			break
		}
		for q < 4 && rect.Quadrant(q) != f.Rect(c) {
			q++
		}
		if q == 4 {
			return tree, fmt.Errorf("node %d: child %d's cell %v is no quadrant after the previous child's", n, c, f.Rect(c))
		}
		q++
		sub, err := checkNode(f, ents, c, depth+1)
		if err != nil {
			return tree, err
		}
		for sc := range tree {
			tree[sc] += sub[sc]
		}
	}
	for sc := service.Scenario(0); int(sc) < service.NumScenarios; sc++ {
		if got := f.OwnUB(n, sc); math.Abs(own[sc]-got) > 1e-6*(1+own[sc]) {
			return tree, fmt.Errorf("node %d: ownUB[%v] = %v, recomputed %v", n, sc, got, own[sc])
		}
		if got := f.TreeUB(n, sc); math.Abs(tree[sc]-got) > 1e-6*(1+tree[sc]) {
			return tree, fmt.Errorf("node %d: treeUB[%v] = %v, recomputed %v", n, sc, got, tree[sc])
		}
	}
	return tree, nil
}

// checkBuckets checks invariant 4 on node n's own list.
func checkBuckets(f *Frozen, ents []Entry, n int32) error {
	lo, hi := f.entryOff[n], f.entryOff[n+1]
	for e := lo + 1; e < hi; e++ {
		if cmpEntry(&ents[e], &ents[e-1]) < 0 {
			return fmt.Errorf("node %d: list not sorted at entry %d", n, e)
		}
	}
	for b := f.bucketOff[n]; b < f.bucketOff[n+1]; b++ {
		blo, bhi := f.bktEntryOff[b], f.bktEntryOff[b+1]
		if blo == bhi || int(bhi-blo) > f.beta {
			return fmt.Errorf("node %d: bucket %d holds %d entries, β %d", n, b, bhi-blo, f.beta)
		}
		if b > f.bucketOff[n] && f.bktMinStart[b] < f.bktMaxStart[b-1] {
			return fmt.Errorf("node %d: bucket %d start range overlaps the previous one", n, b)
		}
		var a zAgg
		a.reset(&ents[blo])
		for e := blo + 1; e < bhi; e++ {
			a.extend(&ents[e])
		}
		got := zAgg{f.bktMinStart[b], f.bktMaxStart[b], f.bktStartMBR[b], f.bktEndMBR[b], f.bktFullMBR[b]}
		if got != a {
			return fmt.Errorf("node %d: bucket %d aggregates %+v, recomputed %+v", n, b, got, a)
		}
	}
	return nil
}

// TestCheckInvariantsRejectsCorruption: the checker catches what
// FrozenFromColumns lets through — two entries of a bucket out of order,
// and an ownUB that is off.
func TestCheckInvariantsRejectsCorruption(t *testing.T) {
	f, err := BuildFrozen(randTrajectories(600, 5, 105, testBounds), Options{Variant: Segmented, Ordering: ZOrder, Beta: 8, Bounds: testBounds})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkInvariants(f); err != nil {
		t.Fatal(err)
	}
	corrupt := func(name, want string, fn func(c *FrozenColumns)) {
		t.Helper()
		c := f.Columns()
		c.EntFirst, c.EntLast = slices.Clone(c.EntFirst), slices.Clone(c.EntLast)
		c.EntTraj, c.EntSeg = slices.Clone(c.EntTraj), slices.Clone(c.EntSeg)
		c.OwnUB = slices.Clone(c.OwnUB)
		fn(&c)
		g, err := FrozenFromColumns(c, f.Table())
		if err != nil {
			t.Fatalf("%s: FrozenFromColumns refuses it: %v", name, err)
		}
		if err := checkInvariants(g); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: checkInvariants = %v, want an error naming %q", name, err, want)
		}
	}
	corrupt("bucket order", "not sorted", func(c *FrozenColumns) {
		ents, _ := rebuildEntries(f)
		for b := 0; b+1 < len(c.BktEntryOff); b++ {
			for e := c.BktEntryOff[b]; e+1 < c.BktEntryOff[b+1]; e++ {
				if cmpEntry(&ents[e], &ents[e+1]) < 0 {
					// Swap the two whole entries: each stays in its node,
					// filed once, with its own geometry — only the order breaks.
					for _, col := range [][]int32{c.EntTraj, c.EntSeg} {
						col[e], col[e+1] = col[e+1], col[e]
					}
					c.EntFirst[e], c.EntFirst[e+1] = c.EntFirst[e+1], c.EntFirst[e]
					c.EntLast[e], c.EntLast[e+1] = c.EntLast[e+1], c.EntLast[e]
					return
				}
			}
		}
		t.Fatal("no bucket holds two distinct z-ids")
	})
	corrupt("ownUB off", "ownUB", func(c *FrozenColumns) { c.OwnUB[0] += 0.5 })
}
