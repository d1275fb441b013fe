package tqtree

import (
	"fmt"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// FrozenColumns is the serializable flat view of a Frozen index — the
// column slices as the snapshot format (TQLIVE02) records them, with no
// behavior. The snapshot layer reconstructs a
// Frozen with FrozenFromColumns, which re-checks every structural
// invariant so a corrupt or hostile stream fails with an error instead
// of an out-of-bounds panic or an unterminated traversal.
//
// EntMBR is present only where Variant.HoldsEntryMBRs, EntTraj and
// EntSeg only where Variant.HoldsEntryOrdinals; elsewhere they are nil,
// in the view and on disk alike. EntFirst and EntLast are on disk for
// every variant, but a whole-trajectory base (TwoPoint, FullTrajectory)
// does not hold them: its entries' endpoints are its table rows' first
// and last points. Columns leaves them nil there, the snapshot writer
// derives them entry by entry (Frozen.EntryEnds), and FrozenFromColumns
// checks the ones it is given against the table and keeps neither.
type FrozenColumns struct {
	Variant  Variant
	Ordering Ordering
	Beta     int
	MaxDepth int
	Bounds   geo.Rect

	NodeRect   []geo.Rect
	ChildBase  []int32
	ChildCount []int32
	EntryOff   []int32
	BucketOff  []int32
	OwnUB      []float64
	TreeUB     []float64

	BktEntryOff []int32
	BktMinStart []uint64
	BktMaxStart []uint64
	BktStartMBR []geo.Rect
	BktEndMBR   []geo.Rect
	BktFullMBR  []geo.Rect

	EntFirst []geo.Point
	EntLast  []geo.Point
	EntMBR   []geo.Rect
	EntTraj  []int32
	EntSeg   []int32
}

// Columns returns the index's column slices; EntFirst and EntLast are
// nil on a whole-trajectory base, which does not hold them. The slices
// are shared, not copied: callers must treat them as read-only.
func (f *Frozen) Columns() FrozenColumns {
	return FrozenColumns{
		Variant:  f.variant,
		Ordering: f.ordering,
		Beta:     f.beta,
		MaxDepth: f.maxDepth,
		Bounds:   f.bounds,

		NodeRect:   f.nodeRect,
		ChildBase:  f.childBase,
		ChildCount: f.childCount,
		EntryOff:   f.entryOff,
		BucketOff:  f.bucketOff,
		OwnUB:      f.ownUB,
		TreeUB:     f.treeUB,

		BktEntryOff: f.bktEntryOff,
		BktMinStart: f.bktMinStart,
		BktMaxStart: f.bktMaxStart,
		BktStartMBR: f.bktStartMBR,
		BktEndMBR:   f.bktEndMBR,
		BktFullMBR:  f.bktFullMBR,

		EntFirst: f.entFirst,
		EntLast:  f.entLast,
		EntMBR:   f.entMBR,
		EntTraj:  f.entTraj,
		EntSeg:   f.entSeg,
	}
}

// FrozenFromColumns assembles a Frozen from deserialized columns and its
// trajectory table, validating every structural invariant the query paths
// rely on. EntFirst and EntLast are required for every variant and must
// equal, bit for bit, the endpoints the table gives each entry; on a
// whole-trajectory base they are checked and dropped. Any other entry
// column the variant does not hold must be nil. The slices the index
// holds and the table are adopted, not copied.
func FrozenFromColumns(c FrozenColumns, table *trajectory.Table) (*Frozen, error) {
	if c.Variant < TwoPoint || c.Variant > FullTrajectory {
		return nil, fmt.Errorf("tqtree: frozen columns: invalid variant %d", int(c.Variant))
	}
	if c.Ordering < Basic || c.Ordering > ZOrder {
		return nil, fmt.Errorf("tqtree: frozen columns: invalid ordering %d", int(c.Ordering))
	}
	if c.Beta <= 0 || c.MaxDepth <= 0 {
		return nil, fmt.Errorf("tqtree: frozen columns: invalid beta %d / max depth %d", c.Beta, c.MaxDepth)
	}
	nn := len(c.NodeRect)
	if nn == 0 {
		return nil, fmt.Errorf("tqtree: frozen columns: no nodes")
	}
	if len(c.ChildBase) != nn || len(c.ChildCount) != nn || len(c.EntryOff) != nn+1 {
		return nil, fmt.Errorf("tqtree: frozen columns: node column length mismatch")
	}
	if len(c.OwnUB) != nn*service.NumScenarios || len(c.TreeUB) != nn*service.NumScenarios {
		return nil, fmt.Errorf("tqtree: frozen columns: upper-bound column length mismatch")
	}
	ne := len(c.EntFirst)
	// An entry column the variant holds has one value per entry; one it
	// does not hold is absent.
	fits := func(n int, present, holds bool) bool { return holds && n == ne || !holds && !present }
	mbrs, ords := c.Variant.HoldsEntryMBRs(), c.Variant.HoldsEntryOrdinals()
	if len(c.EntLast) != ne || !fits(len(c.EntMBR), c.EntMBR != nil, mbrs) ||
		!fits(len(c.EntTraj), c.EntTraj != nil, ords) || !fits(len(c.EntSeg), c.EntSeg != nil, ords) {
		return nil, fmt.Errorf("tqtree: frozen columns: entry columns do not fit a %v base of %d entries", c.Variant, ne)
	}

	// The BFS layout fully determines a valid forest: node 0 is the root
	// and the children of nodes in id order occupy sequential blocks, so
	// a single cursor sweep proves there are no cycles, no sharing, and
	// no out-of-range child references.
	cursor := int32(1)
	for i := 0; i < nn; i++ {
		cnt := c.ChildCount[i]
		if cnt < 0 || cnt > 4 {
			return nil, fmt.Errorf("tqtree: frozen columns: node %d has %d children", i, cnt)
		}
		if c.ChildBase[i] != cursor {
			return nil, fmt.Errorf("tqtree: frozen columns: node %d child base %d, want %d", i, c.ChildBase[i], cursor)
		}
		cursor += cnt
		if cursor > int32(nn) {
			return nil, fmt.Errorf("tqtree: frozen columns: child range of node %d exceeds %d nodes", i, nn)
		}
	}
	if cursor != int32(nn) {
		return nil, fmt.Errorf("tqtree: frozen columns: %d nodes unreachable from the BFS layout", int32(nn)-cursor)
	}

	// Entry offsets: cumulative over the slab.
	if c.EntryOff[0] != 0 || c.EntryOff[nn] != int32(ne) {
		return nil, fmt.Errorf("tqtree: frozen columns: entry offsets do not span the slab")
	}
	for i := 0; i < nn; i++ {
		if c.EntryOff[i] > c.EntryOff[i+1] {
			return nil, fmt.Errorf("tqtree: frozen columns: entry offsets not monotonic at node %d", i)
		}
	}

	nb := len(c.BktMinStart)
	if c.Ordering == ZOrder {
		if len(c.BucketOff) != nn+1 || len(c.BktEntryOff) != nb+1 ||
			len(c.BktMaxStart) != nb || len(c.BktStartMBR) != nb ||
			len(c.BktEndMBR) != nb || len(c.BktFullMBR) != nb {
			return nil, fmt.Errorf("tqtree: frozen columns: bucket column length mismatch")
		}
		if c.BucketOff[0] != 0 || c.BucketOff[nn] != int32(nb) {
			return nil, fmt.Errorf("tqtree: frozen columns: bucket offsets do not span the buckets")
		}
		for i := 0; i < nn; i++ {
			if c.BucketOff[i] > c.BucketOff[i+1] {
				return nil, fmt.Errorf("tqtree: frozen columns: bucket offsets not monotonic at node %d", i)
			}
			// Buckets and entries were emitted together, so a node's
			// first bucket must start exactly at its first entry.
			if c.BucketOff[i] < int32(nb) && c.BktEntryOff[c.BucketOff[i]] != c.EntryOff[i] {
				return nil, fmt.Errorf("tqtree: frozen columns: bucket/entry offsets disagree at node %d", i)
			}
		}
		if c.BktEntryOff[0] != 0 || c.BktEntryOff[nb] != int32(ne) {
			return nil, fmt.Errorf("tqtree: frozen columns: bucket entry offsets do not span the slab")
		}
		for b := 0; b < nb; b++ {
			if c.BktEntryOff[b] > c.BktEntryOff[b+1] {
				return nil, fmt.Errorf("tqtree: frozen columns: bucket entry offsets not monotonic at bucket %d", b)
			}
		}
	} else if nb != 0 || len(c.BucketOff) != 0 || len(c.BktEntryOff) != 0 {
		return nil, fmt.Errorf("tqtree: frozen columns: basic ordering with bucket columns")
	}

	f := &Frozen{
		variant:  c.Variant,
		ordering: c.Ordering,
		beta:     c.Beta,
		maxDepth: c.MaxDepth,
		bounds:   c.Bounds,

		nodeRect:   c.NodeRect,
		childBase:  c.ChildBase,
		childCount: c.ChildCount,
		entryOff:   c.EntryOff,
		bucketOff:  c.BucketOff,
		ownUB:      c.OwnUB,
		treeUB:     c.TreeUB,

		bktEntryOff: c.BktEntryOff,
		bktMinStart: c.BktMinStart,
		bktMaxStart: c.BktMaxStart,
		bktStartMBR: c.BktStartMBR,
		bktEndMBR:   c.BktEndMBR,
		bktFullMBR:  c.BktFullMBR,

		entFirst: c.EntFirst,
		entLast:  c.EntLast,
		entMBR:   c.EntMBR,
		entTraj:  c.EntTraj,
		entSeg:   c.EntSeg,

		table: table,
	}
	if !ords {
		if table.Len() != ne {
			return nil, fmt.Errorf("tqtree: frozen columns: %v base of %d entries holds %d trajectories", c.Variant, ne, table.Len())
		}
		f.entFirst, f.entLast = nil, nil
	}
	for e := range ne {
		ti, seg := int32(e), int32(-1)
		if ords {
			ti, seg = c.EntTraj[e], c.EntSeg[e]
			if ti < 0 || int(ti) >= table.Len() {
				return nil, fmt.Errorf("tqtree: frozen columns: entry %d references trajectory %d of %d", e, ti, table.Len())
			}
			if segs := table.NumPoints(ti) - 1; seg < -1 || int(seg) >= segs {
				return nil, fmt.Errorf("tqtree: frozen columns: entry %d has segment %d of %d", e, seg, segs)
			}
		}
		var a, b geo.Point
		if seg < 0 {
			a, b = table.Ends(ti)
		} else {
			pts := table.Points(ti)
			a, b = pts[seg], pts[seg+1]
		}
		if !samePoint(a, c.EntFirst[e]) || !samePoint(b, c.EntLast[e]) {
			return nil, fmt.Errorf("tqtree: frozen columns: entry %d endpoints are not trajectory %d segment %d's", e, ti, seg)
		}
	}
	return f, nil
}

// samePoint reports whether a and b are the same bits.
func samePoint(a, b geo.Point) bool {
	return math.Float64bits(a.X) == math.Float64bits(b.X) && math.Float64bits(a.Y) == math.Float64bits(b.Y)
}
