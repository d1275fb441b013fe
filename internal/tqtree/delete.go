package tqtree

import (
	"slices"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Delete removes a trajectory's entries from the tree and reports whether
// every entry was found. The trajectory must be the same value (same ID
// and points) that was inserted; entries are located by routing exactly
// as Insert routed them. Nodes are not merged on underflow — the tree
// only shrinks logically, which keeps deletion O(depth + β) per entry.
func (t *Tree) Delete(u *trajectory.Trajectory) bool {
	entries := appendEntries(nil, t.opts.Variant, t.bounds, u)
	all := true
	for i := range entries {
		if t.deleteEntry(&entries[i]) {
			t.numEntries--
		} else {
			all = false
		}
	}
	if all {
		t.numTrajs--
		t.numPoints -= u.Len()
	}
	return all
}

// deleteEntry walks the routing path of e, removes it from the list of
// the node that stores it, and rolls the upper bounds back along the
// path. Returns false when the entry is not present.
func (t *Tree) deleteEntry(e *Entry) bool {
	// Collect the path from root to the storage node.
	path := make([]*Node, 0, 16)
	n := t.root
	for {
		path = append(path, n)
		if n.leaf {
			break
		}
		q, ok := routeQuadrant(t.opts.Variant, n.rect, e)
		if !ok {
			break
		}
		child := n.children[q]
		if child == nil {
			return false
		}
		n = child
	}
	store := path[len(path)-1]
	if !store.list.remove(e) {
		return false
	}
	for sc := 0; sc < service.NumScenarios; sc++ {
		store.ownUB[sc] -= e.ub[sc]
		if store.ownUB[sc] < 0 {
			store.ownUB[sc] = 0 // guard float drift
		}
	}
	for _, p := range path {
		for sc := 0; sc < service.NumScenarios; sc++ {
			p.treeUB[sc] -= e.ub[sc]
			if p.treeUB[sc] < 0 {
				p.treeUB[sc] = 0
			}
		}
	}
	return true
}

// sameEntry matches stored entries by identity: parent trajectory ID and
// segment index.
func sameEntry(a *Entry, id trajectory.ID, segIdx int) bool {
	return a.Traj.ID == id && a.SegIdx == segIdx
}

// remove deletes the entry matching e's identity from a basic list.
func (l *basicList) remove(e *Entry) bool {
	for i := range l.entries {
		if sameEntry(&l.entries[i], e.Traj.ID, e.SegIdx) {
			l.entries = slices.Delete(l.entries, i, i+1)
			return true
		}
	}
	return false
}

// remove deletes the entry matching e's identity from a z-list, keeping
// bucket order and aggregates consistent.
func (l *zList) remove(e *Entry) bool {
	for bi, b := range l.buckets {
		if e.startCode < b.minStart || e.startCode > b.maxStart {
			continue
		}
		for i := range b.entries {
			if sameEntry(&b.entries[i], e.Traj.ID, e.SegIdx) {
				b.entries = slices.Delete(b.entries, i, i+1)
				l.size--
				if len(b.entries) == 0 {
					l.buckets = slices.Delete(l.buckets, bi, bi+1)
				} else {
					b.recompute()
				}
				return true
			}
		}
	}
	return false
}
