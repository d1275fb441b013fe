package tqtree

import (
	"cmp"
	"slices"
	"sort"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/zorder"
)

// FilterMode selects the candidate predicate zReduce applies to entries
// against a facility component's EMBR. Which mode is correct depends on
// the index variant and query scenario; see Tree.FilterModeFor.
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

func entryMatches(e *Entry, embr geo.Rect, mode FilterMode) bool {
	switch mode {
	case NeedBoth:
		return embr.Contains(e.First()) && embr.Contains(e.Last())
	case NeedAny:
		return embr.Contains(e.First()) || embr.Contains(e.Last())
	case NeedOverlap:
		return embr.Intersects(e.MBR())
	}
	panic("tqtree: invalid filter mode")
}

// entryList abstracts the per-node trajectory list. The Basic ordering
// stores a flat slice (the paper's TQ(B)); the ZOrder ordering keeps
// entries sorted by (start z-id, end z-id) in β-sized buckets — the
// paper's z-nodes — enabling bucket-level pruning (TQ(Z)).
type entryList interface {
	add(e *Entry)
	len() int
	// forEach visits every entry; stops early if fn returns false.
	forEach(fn func(*Entry) bool)
	// candidates visits entries that pass the zReduce pruning for the
	// given EMBR. ivs is the Morton-code interval cover of the EMBR in
	// the tree's root space (used only by the z-ordered list, and only
	// for modes that pin the start point inside the EMBR; may be nil
	// otherwise).
	candidates(embr geo.Rect, ivs []zorder.Interval, mode FilterMode, v EntryVisitor)
	// drain returns a copy of the entries and empties the list, clearing
	// its storage (used when a leaf splits).
	drain() []Entry
	// remove deletes the entry matching e's identity (trajectory ID and
	// segment index), reporting whether it was present.
	remove(e *Entry) bool
}

// basicList is the flat, unordered list of TQ-tree Basic.
type basicList struct {
	entries []Entry
}

func (l *basicList) add(e *Entry) { l.entries = insertAt(l.entries, len(l.entries), e) }

func (l *basicList) len() int { return len(l.entries) }

func (l *basicList) forEach(fn func(*Entry) bool) {
	for i := range l.entries {
		if !fn(&l.entries[i]) {
			return
		}
	}
}

func (l *basicList) candidates(embr geo.Rect, _ []zorder.Interval, mode FilterMode, v EntryVisitor) {
	for i := range l.entries {
		if entryMatches(&l.entries[i], embr, mode) {
			v.VisitEntry(&l.entries[i])
		}
	}
}

func (l *basicList) drain() []Entry {
	out := slices.Clone(l.entries)
	clear(l.entries)
	l.entries = nil
	return out
}

// insertAt inserts *e into s at i. When s must grow, its old storage —
// maybe a window on a slab other lists still use — is cleared, or a stale
// copy there would keep a deleted trajectory reachable.
func insertAt(s []Entry, i int, e *Entry) []Entry {
	out := slices.Insert(s, i, *e)
	if len(s) == cap(s) {
		clear(s)
	}
	return out
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
	b.recompute()
	return b
}

func (b *zBucket) recompute() {
	if len(b.entries) == 0 {
		return
	}
	b.reset(&b.entries[0])
	for i := 1; i < len(b.entries); i++ {
		b.extend(&b.entries[i])
	}
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

// survives reports whether the bucket can contain candidates for the EMBR
// under the given mode — the bucket-granularity half of zReduce.
func (b *zBucket) survives(embr geo.Rect, mode FilterMode) bool {
	switch mode {
	case NeedBoth:
		return embr.Intersects(b.startMBR) && embr.Intersects(b.endMBR)
	case NeedAny:
		return embr.Intersects(b.startMBR) || embr.Intersects(b.endMBR)
	case NeedOverlap:
		return embr.Intersects(b.fullMBR)
	}
	panic("tqtree: invalid filter mode")
}

// zList is the z-ordered bucket list of TQ-tree Z-order.
type zList struct {
	buckets []*zBucket
	beta    int
	size    int
}

// cmpEntry orders entries by (start, end) z-ids, the z-lists' order.
func cmpEntry(a, b *Entry) int {
	return cmp.Or(cmp.Compare(a.startCode, b.startCode), cmp.Compare(a.endCode, b.endCode))
}

// newZList chunks z-sorted entries into buckets of β.
func newZList(entries []Entry, beta int) *zList {
	l := &zList{beta: beta, size: len(entries), buckets: make([]*zBucket, 0, (len(entries)+beta-1)/beta)}
	for len(entries) > 0 {
		n := min(beta, len(entries))
		l.buckets = append(l.buckets, newZBucket(entries[:n:n]))
		entries = entries[n:]
	}
	return l
}

func (l *zList) len() int { return l.size }

func (l *zList) add(e *Entry) {
	l.size++
	if len(l.buckets) == 0 {
		l.buckets = append(l.buckets, newZBucket([]Entry{*e}))
		return
	}
	// First bucket whose maxStart >= e.startCode keeps bucket start-code
	// ranges disjoint and ordered.
	i := sort.Search(len(l.buckets), func(i int) bool {
		return l.buckets[i].maxStart >= e.startCode
	})
	if i == len(l.buckets) {
		i = len(l.buckets) - 1
	}
	b := l.buckets[i]
	pos := sort.Search(len(b.entries), func(j int) bool {
		return cmpEntry(&b.entries[j], e) >= 0
	})
	b.entries = insertAt(b.entries, pos, e)
	b.extend(e)
	if len(b.entries) > l.beta {
		l.splitBucket(i)
	}
}

func (l *zList) splitBucket(i int) {
	b := l.buckets[i]
	mid := len(b.entries) / 2
	right := newZBucket(slices.Clone(b.entries[mid:]))
	clear(b.entries[mid:])
	b.entries = b.entries[:mid]
	b.recompute()
	l.buckets = slices.Insert(l.buckets, i+1, right)
}

func (l *zList) forEach(fn func(*Entry) bool) {
	for _, b := range l.buckets {
		for i := range b.entries {
			if !fn(&b.entries[i]) {
				return
			}
		}
	}
}

func (l *zList) candidates(embr geo.Rect, ivs []zorder.Interval, mode FilterMode, v EntryVisitor) {
	if mode != NeedBoth || len(ivs) == 0 {
		for _, b := range l.buckets {
			l.scanBucket(b, embr, mode, v)
		}
		return
	}
	// Candidates must have their start point inside the EMBR, and any
	// point inside a rectangle has a Morton code inside the interval
	// cover of the rectangle — so only buckets whose start-code range
	// overlaps some interval can match. Buckets are visited at most
	// once: the cursor bi only moves forward.
	bi := 0
	for _, iv := range ivs {
		for bi < len(l.buckets) && l.buckets[bi].maxStart < iv.Lo {
			bi++
		}
		for bi < len(l.buckets) && l.buckets[bi].minStart <= iv.Hi {
			l.scanBucket(l.buckets[bi], embr, mode, v)
			bi++
		}
		if bi == len(l.buckets) {
			return
		}
	}
}

func (l *zList) scanBucket(b *zBucket, embr geo.Rect, mode FilterMode, v EntryVisitor) {
	if !b.survives(embr, mode) {
		return
	}
	for i := range b.entries {
		if entryMatches(&b.entries[i], embr, mode) {
			v.VisitEntry(&b.entries[i])
		}
	}
}

func (l *zList) drain() []Entry {
	out := make([]Entry, 0, l.size)
	for _, b := range l.buckets {
		out = append(out, b.entries...)
		clear(b.entries)
	}
	l.buckets = nil
	l.size = 0
	return out
}
