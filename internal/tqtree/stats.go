package tqtree

import (
	"fmt"
	"math"

	"github.com/trajcover/trajcover/internal/service"
)

// Stats describes the shape of a TQ-tree for diagnostics and tests.
type Stats struct {
	Nodes         int
	Leaves        int
	MaxDepth      int
	Entries       int
	InternalBlock int // entries stored at internal (inter-node) lists
	LeafBlock     int // entries stored at leaf (intra-node) lists
}

// Stats walks the tree and returns its shape.
func (t *Tree) Stats() Stats {
	var s Stats
	t.root.Walk(func(n *Node) {
		s.Nodes++
		if n.depth > s.MaxDepth {
			s.MaxDepth = n.depth
		}
		s.Entries += n.list.len()
		if n.leaf {
			s.Leaves++
			s.LeafBlock += n.list.len()
		} else {
			s.InternalBlock += n.list.len()
		}
	})
	return s
}

// CheckInvariants verifies the structural invariants the query algorithms
// rely on, returning the first violation found. It is O(total entries ×
// depth) and intended for tests.
//
// Invariants:
//  1. Every entry is stored exactly once (count matches NumEntries).
//  2. An entry's routing rectangle is contained in its storage node's
//     rectangle, and is split by the node's children (no child could hold
//     it) unless the node is a leaf.
//  3. ownUB equals the sum of the node's entries' per-scenario bounds;
//     treeUB equals ownUB plus the children's treeUB.
//  4. Z-ordered lists are sorted by (start, end) code with bucket
//     start-code ranges disjoint and ascending, and no bucket exceeds β.
func (t *Tree) CheckInvariants() error {
	total := 0
	var check func(n *Node) error
	check = func(n *Node) error {
		var own [service.NumScenarios]float64
		var err error
		n.list.forEach(func(e *Entry) bool {
			total++
			rr := routingRect(t.opts.Variant, e)
			if !n.rect.ContainsRect(rr) {
				err = fmt.Errorf("entry %d/%d routing rect %v outside node rect %v",
					e.Traj.ID, e.SegIdx, rr, n.rect)
				return false
			}
			if !n.leaf {
				if q, ok := routeQuadrant(t.opts.Variant, n.rect, e); ok {
					err = fmt.Errorf("entry %d/%d at internal node but routable to child %d",
						e.Traj.ID, e.SegIdx, q)
					return false
				}
			}
			for sc := 0; sc < service.NumScenarios; sc++ {
				own[sc] += e.ub[sc]
			}
			return true
		})
		if err != nil {
			return err
		}
		tree := own
		for q := 0; q < 4; q++ {
			c := n.children[q]
			if c == nil {
				continue
			}
			if n.leaf {
				return fmt.Errorf("leaf node at depth %d has child %d", n.depth, q)
			}
			if !n.rect.ContainsRect(c.rect) {
				return fmt.Errorf("child %d rect %v outside parent %v", q, c.rect, n.rect)
			}
			if err := check(c); err != nil {
				return err
			}
			for sc := 0; sc < service.NumScenarios; sc++ {
				tree[sc] += c.treeUB[sc]
			}
		}
		for sc := 0; sc < service.NumScenarios; sc++ {
			if math.Abs(own[sc]-n.ownUB[sc]) > 1e-6*(1+own[sc]) {
				return fmt.Errorf("node depth %d ownUB[%d] = %v, recomputed %v",
					n.depth, sc, n.ownUB[sc], own[sc])
			}
			if math.Abs(tree[sc]-n.treeUB[sc]) > 1e-6*(1+tree[sc]) {
				return fmt.Errorf("node depth %d treeUB[%d] = %v, recomputed %v",
					n.depth, sc, n.treeUB[sc], tree[sc])
			}
		}
		if zl, ok := n.list.(*zList); ok {
			if err := zl.checkSorted(t.opts.Beta); err != nil {
				return fmt.Errorf("node depth %d: %w", n.depth, err)
			}
		}
		return nil
	}
	if err := check(t.root); err != nil {
		return err
	}
	if total != t.numEntries {
		return fmt.Errorf("stored entries = %d, tree reports %d", total, t.numEntries)
	}
	return nil
}

// checkSorted verifies z-list ordering, bucket range disjointness, and β.
func (l *zList) checkSorted(beta int) error {
	var prevMax uint64
	first := true
	for i, b := range l.buckets {
		if len(b.entries) == 0 {
			return fmt.Errorf("bucket %d empty", i)
		}
		if len(b.entries) > beta {
			return fmt.Errorf("bucket %d has %d entries > beta %d", i, len(b.entries), beta)
		}
		for j := 1; j < len(b.entries); j++ {
			if cmpEntry(&b.entries[j], &b.entries[j-1]) < 0 {
				return fmt.Errorf("bucket %d not sorted at %d", i, j)
			}
		}
		if b.entries[0].startCode != b.minStart ||
			b.entries[len(b.entries)-1].startCode != b.maxStart {
			return fmt.Errorf("bucket %d min/max start codes stale", i)
		}
		if !first && b.minStart < prevMax {
			return fmt.Errorf("bucket %d start range overlaps previous", i)
		}
		prevMax = b.maxStart
		first = false
	}
	return nil
}
