package tqtree

// The frozen columnar TQ-tree: an immutable TQ-tree laid out in a handful
// of contiguous slices, written straight from the build plan
// (BuildFrozen). Its hot loops — best-first node expansion and zReduce
// bucket scans — walk flat arrays instead of chasing pointers:
//
//   - q-nodes become parallel columns indexed by int32 (BFS order, each
//     node's children contiguous at childBase..childBase+childCount);
//   - per-node entry lists become ranges into one SoA entry slab that
//     holds only the columns its variant reads: the endpoints always,
//     the MBR on a FullTrajectory base, the trajectory ordinal and
//     segment index on a Segmented one;
//   - z-node buckets become ranges into bucket aggregate columns;
//   - Entry.Traj shrinks to an int32 ordinal into one columnar
//     trajectory.Table, touched only when a surviving candidate needs
//     interior points.
//
// Beyond cache locality, the layout has no pointer words for the GC to
// scan — the table included — and serializes verbatim (see the
// TQSNAP04/TQSHRD03 snapshot formats), so restoring a frozen index is a
// bulk read plus bounds checks instead of a rebuild.

import (
	"fmt"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
	"github.com/trajcover/trajcover/internal/zorder"
)

// Frozen is the immutable flat representation of a TQ-tree, and the one
// layout internal/query searches: node questions (upper bounds, children)
// take int32 node handles, and a node's own list is scanned by ScoreNode
// (kMaxRRST) or AppendCovered (coverage). A Frozen is safe for any number of
// concurrent readers and cannot be mutated.
type Frozen struct {
	variant       Variant
	ordering      Ordering
	beta          int
	maxDepth      int
	bounds        geo.Rect
	hasMultipoint bool

	// Node columns, in BFS order; the children of node n occupy
	// childBase[n] .. childBase[n]+childCount[n]-1 (quadrant order).
	// childBase is maintained for every node — it equals the running
	// child cursor even for leaves — so the BFS invariant is checkable
	// on restore. entryOff (and bucketOff, Z-order only) are cumulative:
	// node n's entries are the slab range [entryOff[n], entryOff[n+1]).
	nodeRect   []geo.Rect
	childBase  []int32
	childCount []int32
	entryOff   []int32
	bucketOff  []int32
	ownUB      []float64 // numNodes × NumScenarios, scenario-major per node
	treeUB     []float64 // numNodes × NumScenarios

	// Bucket aggregate columns (Z-order only): bucket b covers entries
	// [bktEntryOff[b], bktEntryOff[b+1]).
	bktEntryOff []int32
	bktMinStart []uint64
	bktMaxStart []uint64
	bktStartMBR []geo.Rect
	bktEndMBR   []geo.Rect
	bktFullMBR  []geo.Rect

	// Entry slab, SoA. The plan's per-entry Morton codes and upper bounds
	// are deliberately NOT carried over: zReduce prunes
	// buckets with the aggregate columns and filters entries by geometry,
	// and the immutable index never re-derives node bounds. Of the rest,
	// every variant holds the endpoints zReduce filters by; a column only
	// some variant reads is nil on the others, and EntryOrdinal /
	// EntrySegment derive its values there:
	//   - entMBR, read only by the NeedOverlap filter: FullTrajectory
	//     (HoldsEntryMBRs).
	//   - entTraj (table ordinal) and entSeg (segment index, -1 for a
	//     whole trajectory): Segmented (HoldsEntryOrdinals). Elsewhere
	//     each trajectory is one whole entry, numbered in slab order, so
	//     entry e is ordinal e.
	// A TwoPoint entry is 32 bytes, a Segmented one 40, a FullTrajectory
	// one 64, in memory and in a snapshot alike.
	entFirst []geo.Point
	entLast  []geo.Point
	entMBR   []geo.Rect
	entTraj  []int32
	entSeg   []int32

	// table holds the indexed trajectories, numbered by ordinal, dense in
	// order of first appearance in the entry slab.
	table *trajectory.Table

	// pin, when non-nil, keeps the backing store of the columns
	// reachable: a Frozen restored from a mapped snapshot aliases its
	// slices onto the file mapping, and the mapping's release is driven
	// by a finalizer on the pinned token. Heap-restored and frozen-in-
	// process indexes leave it nil.
	pin any
}

// SetPin attaches the object that owns the columns' backing store (the
// mapped-snapshot token). Call once, right after FrozenFromColumns, and
// before the Frozen is shared.
func (f *Frozen) SetPin(p any) { f.pin = p }

// BuildFrozen builds the TQ-tree over user trajectories: it plans the
// corpus and writes the plan as columns, in BFS node order. Points are
// copied into the trajectory table, so the result keeps nothing of users.
// Two trajectories with one ID are rejected.
func BuildFrozen(users []*trajectory.Trajectory, opts Options) (*Frozen, error) {
	pl, err := planCorpus(users, opts)
	if err != nil {
		return nil, err
	}
	order := pl.bfs()
	beta := pl.opts.Beta
	buckets := 0
	for _, n := range pl.nodes {
		buckets += (int(n.own-n.lo) + beta - 1) / beta
	}
	w, err := newFrozenWriter(pl, len(order), buckets)
	if err != nil {
		return nil, err
	}
	// first holds each trajectory's ordinal, plus one, at the slab index
	// of its first entry.
	first := make([]int32, len(pl.slab))
	for i, id := range order {
		n := &pl.nodes[id]
		w.node(i, n.rect, kids(n.child), &n.ownUB, &n.treeUB)
		for own := pl.perm[n.lo:n.own]; len(own) > 0; {
			k := len(own)
			if pl.opts.Ordering == ZOrder {
				k = min(k, beta)
				var a zAgg
				a.reset(&pl.slab[own[0]])
				for _, p := range own[1:k] {
					a.extend(&pl.slab[p])
				}
				w.bucket(&a)
			}
			for _, p := range own[:k] {
				e := &pl.slab[p]
				head := p - int32(max(e.SegIdx, 0))
				if first[head] == 0 {
					first[head] = w.table.Append(e.Traj) + 1
				}
				w.entry(e, first[head]-1)
			}
			own = own[k:]
		}
	}
	return w.finish()
}

// frozenWriter lays a plan out as Frozen columns in BFS node order, one
// node, bucket and entry at a time, filling the trajectory table too.
type frozenWriter struct {
	f     *Frozen
	table *trajectory.TableBuilder
	next  int32 // the next node's first child
}

// newFrozenWriter sizes the columns for pl; buckets is a capacity hint.
func newFrozenWriter(pl *plan, nodes, buckets int) (*frozenWriter, error) {
	o, entries := pl.opts, pl.numEntries
	if nodes > math.MaxInt32 || entries > math.MaxInt32 {
		return nil, fmt.Errorf("tqtree: tree too large to freeze (%d nodes, %d entries)", nodes, entries)
	}
	f := &Frozen{
		variant:       o.Variant,
		ordering:      o.Ordering,
		beta:          o.Beta,
		maxDepth:      o.MaxDepth,
		bounds:        pl.bounds,
		hasMultipoint: pl.hasMultipoint,
		nodeRect:      make([]geo.Rect, nodes),
		childBase:     make([]int32, nodes),
		childCount:    make([]int32, nodes),
		entryOff:      make([]int32, nodes+1),
		ownUB:         make([]float64, nodes*service.NumScenarios),
		treeUB:        make([]float64, nodes*service.NumScenarios),
		entFirst:      make([]geo.Point, 0, entries),
		entLast:       make([]geo.Point, 0, entries),
	}
	if o.Variant.HoldsEntryMBRs() {
		f.entMBR = make([]geo.Rect, 0, entries)
	}
	if o.Variant.HoldsEntryOrdinals() {
		f.entTraj = make([]int32, 0, entries)
		f.entSeg = make([]int32, 0, entries)
	}
	if o.Ordering == ZOrder {
		f.bucketOff = make([]int32, nodes+1)
		f.bktEntryOff = make([]int32, 0, buckets+1)
		f.bktMinStart = make([]uint64, 0, buckets)
		f.bktMaxStart = make([]uint64, 0, buckets)
		f.bktStartMBR = make([]geo.Rect, 0, buckets)
		f.bktEndMBR = make([]geo.Rect, 0, buckets)
		f.bktFullMBR = make([]geo.Rect, 0, buckets)
	}
	return &frozenWriter{f: f, table: trajectory.NewTableBuilder(pl.numTrajs, pl.numPoints), next: 1}, nil
}

// node opens node i, which has cnt children, at the next entry and
// bucket.
func (w *frozenWriter) node(i int, rect geo.Rect, cnt int32, own, tree *[service.NumScenarios]float64) {
	f := w.f
	f.entryOff[i] = int32(len(f.entFirst))
	if f.bucketOff != nil {
		f.bucketOff[i] = int32(len(f.bktMinStart))
	}
	f.nodeRect[i] = rect
	f.childBase[i] = w.next
	f.childCount[i] = cnt
	w.next += cnt
	copy(f.ownUB[i*service.NumScenarios:], own[:])
	copy(f.treeUB[i*service.NumScenarios:], tree[:])
}

// bucket opens a z-node at the next entry.
func (w *frozenWriter) bucket(a *zAgg) {
	f := w.f
	f.bktEntryOff = append(f.bktEntryOff, int32(len(f.entFirst)))
	f.bktMinStart = append(f.bktMinStart, a.minStart)
	f.bktMaxStart = append(f.bktMaxStart, a.maxStart)
	f.bktStartMBR = append(f.bktStartMBR, a.startMBR)
	f.bktEndMBR = append(f.bktEndMBR, a.endMBR)
	f.bktFullMBR = append(f.bktFullMBR, a.fullMBR)
}

// entry appends e, whose trajectory has table ordinal ti, to the columns
// the variant holds.
func (w *frozenWriter) entry(e *Entry, ti int32) {
	f := w.f
	f.entFirst = append(f.entFirst, e.first)
	f.entLast = append(f.entLast, e.last)
	if f.entMBR != nil {
		f.entMBR = append(f.entMBR, e.mbr)
	}
	if f.entTraj != nil {
		f.entTraj = append(f.entTraj, ti)
		f.entSeg = append(f.entSeg, int32(e.SegIdx))
	}
}

// finish closes the last node and the cumulative bucket → entry mapping.
func (w *frozenWriter) finish() (*Frozen, error) {
	f := w.f
	f.entryOff[len(f.nodeRect)] = int32(len(f.entFirst))
	if f.bucketOff != nil {
		f.bucketOff[len(f.nodeRect)] = int32(len(f.bktMinStart))
		f.bktEntryOff = append(f.bktEntryOff, int32(len(f.entFirst)))
	}
	var err error
	if f.table, err = w.table.Build(); err != nil {
		return nil, err
	}
	return f, nil
}

// kids counts the quadrants holding a child.
func kids(child [4]int32) (n int32) {
	for _, c := range child {
		if c >= 0 {
			n++
		}
	}
	return n
}

// Bounds returns the root space the index was built over.
func (f *Frozen) Bounds() geo.Rect { return f.bounds }

// Variant returns the decomposition variant.
func (f *Frozen) Variant() Variant { return f.variant }

// Ordering returns the per-node list ordering.
func (f *Frozen) Ordering() Ordering { return f.ordering }

// Beta returns the block size β.
func (f *Frozen) Beta() int { return f.beta }

// MaxDepth returns the depth bound the index was built with.
func (f *Frozen) MaxDepth() int { return f.maxDepth }

// NumNodes returns the number of q-nodes.
func (f *Frozen) NumNodes() int { return len(f.nodeRect) }

// NumEntries returns the number of stored entries.
func (f *Frozen) NumEntries() int { return len(f.entFirst) }

// NumTrajectories returns the number of indexed user trajectories.
func (f *Frozen) NumTrajectories() int { return f.table.Len() }

// HasMultipoint reports whether any indexed trajectory has more than two
// points.
func (f *Frozen) HasMultipoint() bool { return f.hasMultipoint }

// Table returns the trajectory table; its ordinal order is the order the
// snapshot formats record.
func (f *Frozen) Table() *trajectory.Table { return f.table }

// Mapped reports whether the columns alias a file mapping instead of
// heap memory.
func (f *Frozen) Mapped() bool { return f.pin != nil }

// Bytes returns the size of everything the index addresses — the column
// slices it holds and the trajectory table — from their lengths.
func (f *Frozen) Bytes() int64 {
	const rect, point = 32, 16
	return f.table.Bytes() +
		rect*int64(len(f.nodeRect)+len(f.bktStartMBR)+len(f.bktEndMBR)+len(f.bktFullMBR)+len(f.entMBR)) +
		point*int64(len(f.entFirst)+len(f.entLast)) +
		8*int64(len(f.ownUB)+len(f.treeUB)+len(f.bktMinStart)+len(f.bktMaxStart)) +
		4*int64(len(f.childBase)+len(f.childCount)+len(f.entryOff)+len(f.bucketOff)+len(f.bktEntryOff)+len(f.entTraj)+len(f.entSeg))
}

// HoldsEntryMBRs reports whether a frozen index of variant v keeps a
// per-entry MBR column: only FullTrajectory's NeedOverlap filter reads
// one.
func (v Variant) HoldsEntryMBRs() bool { return v == FullTrajectory }

// HoldsEntryOrdinals reports whether a frozen index of variant v keeps
// per-entry trajectory ordinal and segment columns: only a segmented
// index files a trajectory under more than one entry.
func (v Variant) HoldsEntryOrdinals() bool { return v == Segmented }

// EntryOrdinal returns the table ordinal of entry e's trajectory: e itself
// on a base that files each trajectory once, in slab order.
func (f *Frozen) EntryOrdinal(e int32) int32 {
	if f.entTraj == nil {
		return e
	}
	return f.entTraj[e]
}

// EntrySegment returns entry e's segment index, -1 for a whole
// trajectory.
func (f *Frozen) EntrySegment(e int32) int32 {
	if f.entSeg == nil {
		return -1
	}
	return f.entSeg[e]
}

// ValidateScenario checks that queries under sc are exact on this index.
func (f *Frozen) ValidateScenario(sc service.Scenario) error {
	return validateScenario(f.variant, f.hasMultipoint, sc)
}

// FilterModeFor returns the zReduce candidate predicate that is sound for
// this index's variant under the given scenario.
func (f *Frozen) FilterModeFor(sc service.Scenario) FilterMode {
	return filterModeFor(f.variant, sc)
}

// AncestorsCanServe reports whether entries stored at proper ancestors of
// the smallest node containing a facility's EMBR can still contribute
// service under sc. When false, a search can start at the containing node
// alone (the paper's containingQNode initialization).
func (f *Frozen) AncestorsCanServe(sc service.Scenario) bool {
	return ancestorsCanServe(f.variant, sc)
}

// Rect returns node n's cell rectangle.
func (f *Frozen) Rect(n int32) geo.Rect { return f.nodeRect[n] }

// IsLeaf reports whether node n has no children.
func (f *Frozen) IsLeaf(n int32) bool { return f.childCount[n] == 0 }

// Child returns the i-th child of node n, or -1 when i is past the node's
// child count. Children are stored in quadrant order.
func (f *Frozen) Child(n int32, i int) int32 {
	if i >= int(f.childCount[n]) {
		return -1
	}
	return f.childBase[n] + int32(i)
}

// ListLen returns the number of entries stored at node n itself.
func (f *Frozen) ListLen(n int32) int {
	return int(f.entryOff[n+1] - f.entryOff[n])
}

// OwnUB returns node n's own-list service upper bound for sc.
func (f *Frozen) OwnUB(n int32, sc service.Scenario) float64 {
	return f.ownUB[int(n)*service.NumScenarios+int(sc)]
}

// TreeUB returns the paper's `sub` for the subtree rooted at n.
func (f *Frozen) TreeUB(n int32, sc service.Scenario) float64 {
	return f.treeUB[int(n)*service.NumScenarios+int(sc)]
}

// ScoreNode runs the zReduce pruning over node n's own list against the
// EMBR and exactly scores every surviving entry with ss, fused into one
// pass over the SoA columns so the hot loop touches nothing but flat
// arrays. It returns the summed service, accumulated in slab order, and
// the number of entries scored.
//
// dead, when non-nil, holds the table ordinals of deleted trajectories:
// an entry of one that passes the EMBR filter is skipped, neither scored
// nor counted. This is how the live path deletes from an immutable base.
// The accumulation order of the survivors is unchanged, so an empty set
// gives the unmasked answer and counts. The node and bucket aggregates (ownUB/
// treeUB, bucket MBRs and z-id ranges) still count masked entries; masking
// only ever removes service, so they stay sound upper bounds and the
// best-first search keeps its exactness guarantee.
func (f *Frozen) ScoreNode(n int32, embr geo.Rect, mode FilterMode, ss *service.StopSet, sc service.Scenario, dead trajectory.OrdinalSet) (so float64, scored int) {
	lo, hi := f.entryOff[n], f.entryOff[n+1]
	if lo == hi {
		return 0, 0
	}
	if f.ordering != ZOrder {
		return f.scoreRange(lo, hi, embr, mode, ss, sc, dead, 0, 0)
	}
	var ivs []zorder.Interval
	var scratch *[]zorder.Interval
	if mode == NeedBoth {
		scratch = ivScratchPool.Get().(*[]zorder.Interval)
		buf := (*scratch)[:0]
		if int(hi-lo) >= coverMinList {
			ivs = zorder.CoverIntervalsAuto(f.bounds, embr, coverBudget, buf)
		} else {
			ivs = append(buf, zorder.Interval{
				Lo: pointCode(f.bounds, geo.Point{X: embr.MinX, Y: embr.MinY}),
				Hi: pointCode(f.bounds, geo.Point{X: embr.MaxX, Y: embr.MaxY}),
			})
		}
	}
	blo, bhi := f.bucketOff[n], f.bucketOff[n+1]
	if mode != NeedBoth || len(ivs) == 0 {
		for b := blo; b < bhi; b++ {
			so, scored = f.scoreBucket(b, embr, mode, ss, sc, dead, so, scored)
		}
	} else {
		// Candidates must have their start point inside the EMBR, so only
		// buckets whose start-code range overlaps an interval of the
		// EMBR's Morton cover can match; the cursor only moves forward.
		bi := blo
		for _, iv := range ivs {
			for bi < bhi && f.bktMaxStart[bi] < iv.Lo {
				bi++
			}
			for bi < bhi && f.bktMinStart[bi] <= iv.Hi {
				so, scored = f.scoreBucket(bi, embr, mode, ss, sc, dead, so, scored)
				bi++
			}
			if bi == bhi {
				break
			}
		}
	}
	if scratch != nil {
		*scratch = ivs[:0]
		ivScratchPool.Put(scratch)
	}
	return so, scored
}

// scoreBucket applies the bucket-granularity half of zReduce and scores
// the bucket's surviving entries. so/scored are running accumulators:
// threading one sum through every bucket keeps the float accumulation
// flat left-to-right over all surviving entries — per-bucket subtotals
// would group the additions differently and drift in the last bits.
func (f *Frozen) scoreBucket(b int32, embr geo.Rect, mode FilterMode, ss *service.StopSet, sc service.Scenario, dead trajectory.OrdinalSet, so float64, scored int) (float64, int) {
	if !f.bucketSurvives(b, embr, mode) {
		return so, scored
	}
	return f.scoreRange(f.bktEntryOff[b], f.bktEntryOff[b+1], embr, mode, ss, sc, dead, so, scored)
}

// bucketSurvives reports whether bucket b can hold a candidate for the
// EMBR under mode — the bucket-granularity half of zReduce.
func (f *Frozen) bucketSurvives(b int32, embr geo.Rect, mode FilterMode) bool {
	switch mode {
	case NeedBoth:
		return embr.Intersects(f.bktStartMBR[b]) && embr.Intersects(f.bktEndMBR[b])
	case NeedAny:
		return embr.Intersects(f.bktStartMBR[b]) || embr.Intersects(f.bktEndMBR[b])
	case NeedOverlap:
		return embr.Intersects(f.bktFullMBR[b])
	}
	return true
}

// scoreRange filters and scores the entry slab range [lo, hi) into the
// running accumulators, skipping the entries of dead's trajectories.
func (f *Frozen) scoreRange(lo, hi int32, embr geo.Rect, mode FilterMode, ss *service.StopSet, sc service.Scenario, dead trajectory.OrdinalSet, so float64, scored int) (float64, int) {
	switch mode {
	case NeedBoth:
		for e := lo; e < hi; e++ {
			if embr.Contains(f.entFirst[e]) && embr.Contains(f.entLast[e]) && f.live(e, dead) {
				scored++
				so += f.serve(e, sc, ss)
			}
		}
	case NeedAny:
		for e := lo; e < hi; e++ {
			if (embr.Contains(f.entFirst[e]) || embr.Contains(f.entLast[e])) && f.live(e, dead) {
				scored++
				so += f.serve(e, sc, ss)
			}
		}
	case NeedOverlap:
		for e := lo; e < hi; e++ {
			if embr.Intersects(f.entMBR[e]) && f.live(e, dead) {
				scored++
				so += f.serve(e, sc, ss)
			}
		}
	default:
		panic("tqtree: invalid filter mode")
	}
	return so, scored
}

// live reports whether entry e's trajectory is not in dead. A nil dead
// costs no read of the entry's ordinal.
func (f *Frozen) live(e int32, dead trajectory.OrdinalSet) bool {
	return dead == nil || !dead.Has(f.EntryOrdinal(e))
}

// AppendCovered appends to dst every entry of node n's own list that a
// coverage walk must read: those passing the bucket MBRs and the entry
// filter of mode, whose trajectory is not in dead. Coverage keeps any
// entry with a covered point, so mode is NeedAny or NeedOverlap, and no
// Morton interval applies — intervals only pin a NeedBoth start point.
func (f *Frozen) AppendCovered(dst []int32, n int32, embr geo.Rect, mode FilterMode, dead trajectory.OrdinalSet) []int32 {
	if f.ordering != ZOrder {
		return f.appendMatches(dst, f.entryOff[n], f.entryOff[n+1], embr, mode, dead)
	}
	for b := f.bucketOff[n]; b < f.bucketOff[n+1]; b++ {
		if f.bucketSurvives(b, embr, mode) {
			dst = f.appendMatches(dst, f.bktEntryOff[b], f.bktEntryOff[b+1], embr, mode, dead)
		}
	}
	return dst
}

// appendMatches appends the entries of the slab range [lo, hi) that pass
// mode's entry filter and belong to no trajectory in dead.
func (f *Frozen) appendMatches(dst []int32, lo, hi int32, embr geo.Rect, mode FilterMode, dead trajectory.OrdinalSet) []int32 {
	for e := lo; e < hi; e++ {
		var ok bool
		switch mode {
		case NeedBoth:
			ok = embr.Contains(f.entFirst[e]) && embr.Contains(f.entLast[e])
		case NeedAny:
			ok = embr.Contains(f.entFirst[e]) || embr.Contains(f.entLast[e])
		case NeedOverlap:
			ok = embr.Intersects(f.entMBR[e])
		}
		if ok && f.live(e, dead) {
			dst = append(dst, e)
		}
	}
	return dst
}

// serve computes entry e's exact service contribution. For a segment the
// contributions are additive shares: summed over a trajectory's segments
// they give its PointCount and Length values, and Binary counts served
// segments.
func (f *Frozen) serve(e int32, sc service.Scenario, ss *service.StopSet) float64 {
	if sc == service.Binary {
		if ss.Served(f.entFirst[e]) && ss.Served(f.entLast[e]) {
			return 1
		}
		return 0
	}
	ti, seg := f.EntryOrdinal(e), int(f.EntrySegment(e))
	if seg < 0 {
		return service.ValueSetPoints(sc, f.table.Points(ti), f.table.Length(ti), ss)
	}
	switch sc {
	case service.PointCount:
		pts := f.table.Points(ti)
		lo, hi := seg, seg+1
		if seg == len(pts)-2 {
			hi = seg + 2
		}
		served := 0
		for i := lo; i < hi; i++ {
			if ss.Served(pts[i]) {
				served++
			}
		}
		return float64(served) / float64(len(pts))
	case service.Length:
		L := f.table.Length(ti)
		if L == 0 {
			return 0
		}
		if ss.Served(f.entFirst[e]) && ss.Served(f.entLast[e]) {
			// entFirst/entLast are the segment's own endpoints.
			return f.entFirst[e].Dist(f.entLast[e]) / L
		}
		return 0
	}
	panic("tqtree: invalid scenario")
}
