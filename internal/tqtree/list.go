package tqtree

import (
	"cmp"

	"github.com/trajcover/trajcover/internal/geo"
)

// FilterMode selects the candidate predicate zReduce applies to entries
// against a facility component's EMBR. Which mode is correct depends on
// the index variant and query scenario; see Frozen.FilterModeFor.
type FilterMode int

const (
	// NeedBoth: an entry can only be served if both its first and last
	// point lie inside the EMBR (Binary service; Length over segments).
	NeedBoth FilterMode = iota
	// NeedAny: an entry can contribute if either endpoint lies inside
	// the EMBR (PointCount over two-point or segment entries).
	NeedAny
	// NeedOverlap: an entry can contribute if its MBR intersects the
	// EMBR (multipoint whole-trajectory entries, where interior points
	// may be served).
	NeedOverlap
)

// entryList abstracts a pointer tree's per-node trajectory list. The
// Basic ordering stores a flat slice (the paper's TQ(B)); the ZOrder
// ordering keeps entries sorted by (start z-id, end z-id) in β-sized
// buckets — the paper's z-nodes — whose aggregates Freeze copies into the
// frozen bucket columns (TQ(Z)).
type entryList interface {
	len() int
	// forEach visits every entry; stops early if fn returns false.
	forEach(fn func(*Entry) bool)
}

// basicList is the flat, unordered list of TQ-tree Basic.
type basicList struct {
	entries []Entry
}

func (l *basicList) len() int { return len(l.entries) }

func (l *basicList) forEach(fn func(*Entry) bool) {
	for i := range l.entries {
		if !fn(&l.entries[i]) {
			return
		}
	}
}

// zBucket is one z-node: up to β entries, consecutive in (startCode,
// endCode) order, with cached aggregates for bucket-level pruning.
type zBucket struct {
	entries []Entry
	zAgg
}

// zAgg holds a z-node's pruning aggregates (the frozen bucket columns).
type zAgg struct {
	minStart uint64
	maxStart uint64
	startMBR geo.Rect // MBR of first points
	endMBR   geo.Rect // MBR of last points
	fullMBR  geo.Rect // union of entry MBRs
}

func newZBucket(entries []Entry) *zBucket {
	b := &zBucket{entries: entries}
	b.reset(&entries[0])
	for i := 1; i < len(entries); i++ {
		b.extend(&entries[i])
	}
	return b
}

// reset makes a the aggregates of e alone.
func (a *zAgg) reset(e *Entry) {
	a.minStart, a.maxStart = e.startCode, e.startCode
	a.startMBR = geo.NewRect(e.first, e.first)
	a.endMBR = geo.NewRect(e.last, e.last)
	a.fullMBR = e.mbr
}

func (a *zAgg) extend(e *Entry) {
	if e.startCode < a.minStart {
		a.minStart = e.startCode
	}
	if e.startCode > a.maxStart {
		a.maxStart = e.startCode
	}
	a.startMBR = a.startMBR.ExtendPoint(e.first)
	a.endMBR = a.endMBR.ExtendPoint(e.last)
	a.fullMBR = a.fullMBR.ExtendRect(e.mbr)
}

// zList is the z-ordered bucket list of TQ-tree Z-order.
type zList struct {
	buckets []*zBucket
	size    int
}

// cmpEntry orders entries by (start, end) z-ids, the z-lists' order.
func cmpEntry(a, b *Entry) int {
	return cmp.Or(cmp.Compare(a.startCode, b.startCode), cmp.Compare(a.endCode, b.endCode))
}

// newZList chunks z-sorted entries into buckets of β.
func newZList(entries []Entry, beta int) *zList {
	l := &zList{size: len(entries), buckets: make([]*zBucket, 0, (len(entries)+beta-1)/beta)}
	for len(entries) > 0 {
		n := min(beta, len(entries))
		l.buckets = append(l.buckets, newZBucket(entries[:n:n]))
		entries = entries[n:]
	}
	return l
}

func (l *zList) len() int { return l.size }

func (l *zList) forEach(fn func(*Entry) bool) {
	for _, b := range l.buckets {
		for i := range b.entries {
			if !fn(&b.entries[i]) {
				return
			}
		}
	}
}
