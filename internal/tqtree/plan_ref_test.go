package tqtree

// The reference planner: the build as it was before entries were routed
// once. Every node re-runs the routing geometry over each of its entries,
// a node's list is sorted by reading its entries' codes, and the columns
// are written from the slab and the input trajectories. BuildFrozen must
// write the same bytes.

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// refEntry is an entry as the reference planner holds it: its trajectory,
// segment, geometry, z-ids and per-scenario bounds.
type refEntry struct {
	traj               *trajectory.Trajectory
	seg                int // -1 for a whole trajectory
	first, last        geo.Point
	mbr                geo.Rect
	startCode, endCode uint64
	ub                 [service.NumScenarios]float64
}

// newRefEntry builds a whole-trajectory entry.
func newRefEntry(t *trajectory.Trajectory, bounds geo.Rect) refEntry {
	e := refEntry{traj: t, seg: -1, first: t.Source(), last: t.Dest(), mbr: t.MBR()}
	e.startCode = pointCode(bounds, e.first)
	e.endCode = pointCode(bounds, e.last)
	e.ub = [service.NumScenarios]float64{1, 1, 1}
	return e
}

// newRefSegmentEntry builds the i-th segment entry of t, whose length is
// length.
func newRefSegmentEntry(t *trajectory.Trajectory, i int, length float64, bounds geo.Rect) refEntry {
	e := refEntry{traj: t, seg: i, first: t.Points[i], last: t.Points[i+1]}
	e.mbr = geo.NewRect(e.first, e.last)
	e.startCode = pointCode(bounds, e.first)
	e.endCode = pointCode(bounds, e.last)
	e.ub[service.Binary] = 1
	owned := 1
	if i == t.NumSegments()-1 {
		owned = 2
	}
	e.ub[service.PointCount] = float64(owned) / float64(t.Len())
	if length > 0 {
		e.ub[service.Length] = t.SegmentLength(i) / length
	}
	return e
}

// refRoutingRect is the rectangle that determines where e is stored.
func refRoutingRect(v Variant, e *refEntry) geo.Rect {
	if v == FullTrajectory {
		return e.mbr
	}
	return geo.NewRect(e.first, e.last)
}

// refRoute returns the child quadrant of rect that wholly contains e's
// routing rectangle, or ok=false when e stays at a node with this rect.
func refRoute(v Variant, rect geo.Rect, e *refEntry) (q int, ok bool) {
	q = rect.QuadrantOf(e.first)
	if rect.Quadrant(q).ContainsRect(refRoutingRect(v, e)) {
		return q, true
	}
	return 0, false
}

// cmpRefEntry orders entries by (start, end) z-ids, the z-lists' order.
func cmpRefEntry(a, b *refEntry) int {
	return cmp.Or(cmp.Compare(a.startCode, b.startCode), cmp.Compare(a.endCode, b.endCode))
}

// refPlan is the reference planner's partition of its slab, serial.
type refPlan struct {
	opts    Options
	bounds  geo.Rect
	slab    []refEntry
	perm    []int32
	scratch []int32
	class   []uint8
	nodes   []planNode
	top     int32
}

func refPlanCorpus(users []*trajectory.Trajectory, opts Options) (*refPlan, error) {
	if opts.Beta <= 0 {
		opts.Beta = DefaultBeta
	}
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = DefaultMaxDepth
	}
	if opts.Variant < TwoPoint || opts.Variant > FullTrajectory {
		return nil, fmt.Errorf("tqtree: invalid variant %d", int(opts.Variant))
	}
	if opts.Ordering < Basic || opts.Ordering > ZOrder {
		return nil, fmt.Errorf("tqtree: invalid ordering %d", int(opts.Ordering))
	}
	pl := &refPlan{opts: opts, bounds: opts.Bounds}
	for _, u := range users {
		if err := u.Validate(); err != nil {
			return nil, fmt.Errorf("tqtree: %w", err)
		}
		pl.bounds = pl.bounds.ExtendRect(u.MBR())
	}
	for _, u := range users {
		if opts.Variant != Segmented {
			pl.slab = append(pl.slab, newRefEntry(u, pl.bounds))
			continue
		}
		length := u.Length()
		for i := 0; i < u.NumSegments(); i++ {
			pl.slab = append(pl.slab, newRefSegmentEntry(u, i, length, pl.bounds))
		}
	}
	n := len(pl.slab)
	pl.perm = make([]int32, n)
	for i := range pl.perm {
		pl.perm[i] = int32(i)
	}
	pl.scratch, pl.class = make([]int32, n), make([]uint8, n)
	pl.top = pl.split(pl.bounds, 0, 0, int32(n))
	return pl, nil
}

func (pl *refPlan) split(rect geo.Rect, depth int, lo, hi int32) int32 {
	n := planNode{rect: rect, lo: lo, own: hi, child: [4]int32{-1, -1, -1, -1}, leaf: true}
	var cut [6]int32
	if !pl.opts.leafFits(int(hi-lo), depth) && pl.partition(rect, lo, hi, &cut) {
		n.leaf, n.own = false, cut[1]
	}
	own := pl.perm[lo:n.own]
	if pl.opts.Ordering == ZOrder {
		slices.SortFunc(own, func(a, b int32) int { return cmpRefEntry(&pl.slab[a], &pl.slab[b]) })
	}
	for _, p := range own {
		for sc := range n.ownUB {
			n.ownUB[sc] += pl.slab[p].ub[sc]
		}
	}
	n.treeUB = n.ownUB
	if !n.leaf {
		for q := 0; q < 4; q++ {
			if clo, chi := cut[q+1], cut[q+2]; clo < chi {
				n.child[q] = pl.split(rect.Quadrant(q), depth+1, clo, chi)
			}
		}
	}
	for _, c := range n.child {
		if c >= 0 {
			for sc := range n.treeUB {
				n.treeUB[sc] += pl.nodes[c].treeUB[sc]
			}
		}
	}
	pl.nodes = append(pl.nodes, n)
	return int32(len(pl.nodes) - 1)
}

// partition reorders perm[lo:hi] stably into the entries that stay at the
// cell, then those routed to quadrants 0..3, routing every entry afresh.
func (pl *refPlan) partition(rect geo.Rect, lo, hi int32, cut *[6]int32) bool {
	var count [5]int32
	for i := lo; i < hi; i++ {
		c := uint8(0)
		if q, ok := refRoute(pl.opts.Variant, rect, &pl.slab[pl.perm[i]]); ok {
			c = uint8(q + 1)
		}
		pl.class[i] = c
		count[c]++
	}
	if count[0] == hi-lo {
		return false
	}
	var next [5]int32
	cut[0] = lo
	for c := range count {
		next[c] = cut[c]
		cut[c+1] = cut[c] + count[c]
	}
	for i := lo; i < hi; i++ {
		pl.scratch[next[pl.class[i]]] = pl.perm[i]
		next[pl.class[i]]++
	}
	copy(pl.perm[lo:hi], pl.scratch[lo:hi])
	return true
}

// refBuildFrozen plans users with the reference planner and lays the plan
// out as columns itself, every table row copied from its trajectory, for
// FrozenFromColumns to assemble.
func refBuildFrozen(users []*trajectory.Trajectory, opts Options) (*Frozen, error) {
	pl, err := refPlanCorpus(users, opts)
	if err != nil {
		return nil, err
	}
	order := (&plan{nodes: pl.nodes, top: pl.top}).bfs()
	o, nodes, n := pl.opts, len(order), len(pl.slab)
	c := FrozenColumns{
		Variant: o.Variant, Ordering: o.Ordering, Beta: o.Beta, MaxDepth: o.MaxDepth, Bounds: pl.bounds,
		NodeRect:   make([]geo.Rect, nodes),
		ChildBase:  make([]int32, nodes),
		ChildCount: make([]int32, nodes),
		EntryOff:   make([]int32, nodes+1),
		OwnUB:      make([]float64, 0, nodes*service.NumScenarios),
		TreeUB:     make([]float64, 0, nodes*service.NumScenarios),
		EntFirst:   make([]geo.Point, 0, n),
		EntLast:    make([]geo.Point, 0, n),
	}
	if o.Variant.HoldsEntryMBRs() {
		c.EntMBR = make([]geo.Rect, 0, n)
	}
	if o.Variant.HoldsEntryOrdinals() {
		c.EntTraj, c.EntSeg = make([]int32, 0, n), make([]int32, 0, n)
	}
	if o.Ordering == ZOrder {
		c.BucketOff = make([]int32, nodes+1)
		c.BktEntryOff, c.BktMinStart, c.BktMaxStart = []int32{}, []uint64{}, []uint64{}
		c.BktStartMBR, c.BktEndMBR, c.BktFullMBR = []geo.Rect{}, []geo.Rect{}, []geo.Rect{}
	}
	tb := trajectory.NewTableBuilder(len(users), 0)
	first := make([]int32, n)
	next, entries := int32(1), int32(0)
	for i, id := range order {
		nd := &pl.nodes[id]
		c.EntryOff[i] = entries
		if c.BucketOff != nil {
			c.BucketOff[i] = int32(len(c.BktMinStart))
		}
		c.NodeRect[i], c.ChildBase[i] = nd.rect, next
		c.ChildCount[i] = kids(nd.child)
		next += c.ChildCount[i]
		c.OwnUB = append(c.OwnUB, nd.ownUB[:]...)
		c.TreeUB = append(c.TreeUB, nd.treeUB[:]...)
		for own := pl.perm[nd.lo:nd.own]; len(own) > 0; {
			k := len(own)
			if o.Ordering == ZOrder {
				k = min(k, o.Beta)
				var a zAgg
				for j, p := range own[:k] {
					if e := &pl.slab[p]; j == 0 {
						a.reset(e.startCode, e.first, e.last, e.mbr)
					} else {
						a.extend(e.startCode, e.first, e.last, e.mbr)
					}
				}
				c.BktEntryOff = append(c.BktEntryOff, entries)
				c.BktMinStart, c.BktMaxStart = append(c.BktMinStart, a.minStart), append(c.BktMaxStart, a.maxStart)
				c.BktStartMBR, c.BktEndMBR = append(c.BktStartMBR, a.startMBR), append(c.BktEndMBR, a.endMBR)
				c.BktFullMBR = append(c.BktFullMBR, a.fullMBR)
			}
			for _, p := range own[:k] {
				e := &pl.slab[p]
				head := p - int32(max(e.seg, 0))
				if first[head] == 0 {
					first[head] = tb.Append(e.traj) + 1
				}
				entries++
				c.EntFirst, c.EntLast = append(c.EntFirst, e.first), append(c.EntLast, e.last)
				if c.EntMBR != nil {
					c.EntMBR = append(c.EntMBR, e.mbr)
				}
				if c.EntTraj != nil {
					c.EntTraj, c.EntSeg = append(c.EntTraj, first[head]-1), append(c.EntSeg, int32(e.seg))
				}
			}
			own = own[k:]
		}
	}
	c.EntryOff[nodes] = entries
	if c.BucketOff != nil {
		c.BucketOff[nodes] = int32(len(c.BktMinStart))
		c.BktEntryOff = append(c.BktEntryOff, entries)
	}
	table, err := tb.Build()
	if err != nil {
		return nil, err
	}
	return FrozenFromColumns(c, table)
}

// assertBuildMatchesReference builds users under opts both ways and fails
// unless both refuse it or both write the same index.
func assertBuildMatchesReference(t *testing.T, name string, users []*trajectory.Trajectory, opts Options) {
	t.Helper()
	want, werr := refBuildFrozen(users, opts)
	got, gerr := BuildFrozen(users, opts)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%s: BuildFrozen error %v, reference error %v", name, gerr, werr)
	}
	if werr == nil {
		assertFrozenEqual(t, name, got, want)
		if !bytes.Equal(frozenBits(got), frozenBits(want)) {
			t.Fatalf("%s: columns or table differ in their bits", name)
		}
	}
}

// frozenBits encodes f's columns and table rows as their bits, which
// tell a signed zero from its twin where == does not.
func frozenBits(f *Frozen) []byte {
	var b bytes.Buffer
	c := f.Columns()
	tab := f.Table()
	cols := []any{c.Bounds, c.NodeRect, c.ChildBase, c.ChildCount, c.EntryOff, c.BucketOff, c.OwnUB, c.TreeUB,
		c.BktEntryOff, c.BktMinStart, c.BktMaxStart, c.BktStartMBR, c.BktEndMBR, c.BktFullMBR,
		c.EntFirst, c.EntLast, c.EntMBR, c.EntTraj, c.EntSeg}
	ids, points := tab.Columns()
	lengths := make([]float64, tab.Len())
	for i := range lengths {
		lengths[i] = tab.Length(int32(i))
	}
	cols = append(cols, ids, points, lengths)
	for _, col := range cols {
		if err := binary.Write(&b, binary.LittleEndian, col); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// refCorpora are the shapes the route-once planner must plan as the
// reference does, over a root space whose sides are no power of two.
func refCorpora() (map[string][]*trajectory.Trajectory, geo.Rect) {
	bounds := geo.Rect{MinX: -3.7, MinY: 1.1, MaxX: 997.3, MaxY: 613.9}
	rng := rand.New(rand.NewSource(47))
	pt := func(x, y float64) geo.Point { return geo.Pt(x, y) }
	mk := func(n int, gen func(i int) []geo.Point) []*trajectory.Trajectory {
		out := make([]*trajectory.Trajectory, n)
		for i := range out {
			out[i] = trajectory.MustNew(trajectory.ID(i), gen(i))
		}
		return out
	}
	// Keys from a handful of points: the sort's ties decide the slab.
	grid := []geo.Point{pt(100, 100), pt(100, 500), pt(900, 100), pt(900, 500), pt(400, 300), pt(610, 380)}
	ties := mk(1200, func(int) []geo.Point {
		return []geo.Point{grid[rng.Intn(len(grid))], grid[rng.Intn(len(grid))]}
	})
	// Every entry straddles the root centre: nothing routes.
	cx, cy := (bounds.MinX+bounds.MaxX)/2, (bounds.MinY+bounds.MaxY)/2
	straddle := mk(600, func(int) []geo.Point {
		d := 1 + rng.Float64()*200
		return []geo.Point{pt(cx-d, cy-d), pt(cx+d, cy+rng.Float64()*200)}
	})
	// Every point in one cell: the depth limit makes the leaf.
	cell := mk(400, func(int) []geo.Point {
		return []geo.Point{pt(10+rng.Float64()*1e-9, 10), pt(10, 10+rng.Float64()*1e-9), pt(10, 10)}
	})
	// Points exactly on the centre lines of the first few levels' cells.
	var lines []float64
	for _, ax := range [][2]float64{{bounds.MinX, bounds.MaxX}, {bounds.MinY, bounds.MaxY}} {
		lo, hi := ax[0], ax[1]
		for l := 0; l < 4; l++ {
			lines = append(lines, (lo+hi)/2)
			hi = (lo + hi) / 2
		}
	}
	centre := mk(900, func(int) []geo.Point {
		pts := make([]geo.Point, 2+rng.Intn(3))
		for j := range pts {
			pts[j] = pt(lines[rng.Intn(len(lines))], lines[rng.Intn(len(lines))])
			if rng.Intn(3) == 0 {
				pts[j].X = bounds.MinX + rng.Float64()*bounds.Width()
			}
		}
		return pts
	})
	// Zero-length trips at distinct points: each routes down to a cell
	// that no longer shrinks.
	// One in ten sits on the root's bottom edge at x = 0, whose cells
	// shrink into the subnormals first, and those 30 split together to
	// any depth bound past β 8.
	zero := mk(300, func(i int) []geo.Point {
		p := pt(bounds.MinX+rng.Float64()*bounds.Width(), bounds.MinY+rng.Float64()*bounds.Height())
		if i%10 == 0 {
			p = pt(0, bounds.MinY)
		}
		return []geo.Point{p, p}
	})
	// Coordinates of ±0, whose MBRs keep the sign the arithmetic gives.
	zeros := []float64{0, math.Copysign(0, -1), 2.5}
	signed := mk(200, func(int) []geo.Point {
		pts := make([]geo.Point, 2+rng.Intn(2))
		for j := range pts {
			pts[j] = pt(zeros[rng.Intn(3)], zeros[rng.Intn(3)]+bounds.MinY)
		}
		return pts
	})
	// Identical geometry under different IDs, as churn re-inserts make.
	uniform := randTrajectories(1500, 5, 48, bounds)
	churn := make([]*trajectory.Trajectory, 0, 1200)
	for i, u := range uniform[:600] {
		churn = append(churn, u, trajectory.MustNew(trajectory.ID(10000+i), u.Points))
	}
	return map[string][]*trajectory.Trajectory{
		"uniform": uniform, "ties": ties, "straddle": straddle, "cell": cell,
		"centre": centre, "zero": zero, "signed": signed, "churn": churn, "one": uniform[:1], "empty": nil,
	}, bounds
}

// TestBuildFrozenMatchesReference: the route-once planner, its packed
// z-sort and its writer make exactly the reference planner's index, for
// every variant, ordering, β, depth bound and parallelism, over every
// corpus shape.
func TestBuildFrozenMatchesReference(t *testing.T) {
	corpora, bounds := refCorpora()
	betas, depths := []int{1, 8, 64}, []int{1, 2, 20, 40}
	if raceEnabled {
		// The detector slows each build tenfold; the parallel split's
		// races show at any β and depth.
		betas, depths = []int{8}, []int{20, 40}
	}
	for cname, users := range corpora {
		for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
			for _, o := range []Ordering{Basic, ZOrder} {
				for _, beta := range betas {
					for _, depth := range depths {
						for _, par := range []int{1, 4} {
							opts := Options{Variant: v, Ordering: o, Beta: beta, MaxDepth: depth, Bounds: bounds, Parallelism: par}
							assertBuildMatchesReference(t, fmt.Sprintf("%s/%v/%v/b%d/d%d/p%d", cname, v, o, beta, depth, par), users, opts)
						}
					}
				}
			}
		}
	}
}

// TestBuildFrozenDeepRoutes: an entry may route deeper than one path word
// holds, and a zero-length one into a cell that no longer shrinks, which
// it must not follow to a depth bound far past it: a build whose bound is
// 2^20 levels over zero-length trips ends, and matches the reference.
func TestBuildFrozenDeepRoutes(t *testing.T) {
	corpora, bounds := refCorpora()
	for _, cname := range []string{"zero", "cell", "ties"} {
		for _, v := range []Variant{TwoPoint, Segmented, FullTrajectory} {
			for _, depth := range []int{33, 64, 100, 1 << 20} {
				opts := Options{Variant: v, Ordering: ZOrder, Beta: 64, MaxDepth: depth, Bounds: bounds, Parallelism: 2}
				if cname == "ties" && depth > 64 {
					continue // 200-odd identical keys a cell split to the bound
				}
				assertBuildMatchesReference(t, fmt.Sprintf("%s/%v/d%d", cname, v, depth), corpora[cname], opts)
			}
		}
	}
}

// FuzzBuildMatchesReference decodes a corpus and options from the fuzz
// bytes and compares BuildFrozen with the reference planner. Coordinates
// come from a 17-step grid over the root space, so centre lines, ties and
// identical trips are common; an x byte of 0xff is a negative zero.
func FuzzBuildMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 8, 8, 8, 8, 2, 3, 3, 16, 16})
	f.Add([]byte{0x25, 0x13, 0x02, 0x03, 3, 8, 8, 8, 9, 3, 0, 0, 16, 16, 0, 16})
	f.Add([]byte{0xff, 0x01, 0x28, 0x02, 2, 4, 4, 4, 4, 2, 4, 4, 4, 4, 2, 4, 4, 4, 4, 2, 12, 12, 13, 13})
	f.Add([]byte{0x03, 0x00, 0x05, 0x00, 0, 0xff, 3, 0, 5, 1, 0, 3, 0xff, 5, 0xff, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		opts := Options{
			Variant:     Variant(data[0] % 3),
			Ordering:    Ordering(data[0] / 3 % 2),
			Beta:        1 + int(data[1]%16),
			MaxDepth:    1 + int(data[2]%48),
			Parallelism: 1 + int(data[3]%4),
			Bounds:      geo.Rect{MinX: 0, MinY: 0, MaxX: 16, MaxY: 16},
		}
		if data[3]&0x80 != 0 {
			opts.Bounds = geo.Rect{MinX: -1.3, MinY: 0.7, MaxX: 15.1, MaxY: 12.9}
		}
		b := opts.Bounds
		at := func(x, y byte) geo.Point {
			if x == 0xff { // a negative zero, against the grid's positive ones
				return geo.Pt(math.Copysign(0, -1), b.MinY+float64(y%17)*b.Height()/16)
			}
			return geo.Pt(b.MinX+float64(x%17)*b.Width()/16, b.MinY+float64(y%17)*b.Height()/16)
		}
		var users []*trajectory.Trajectory
		for rest := data[4:]; len(rest) > 0 && len(users) < 512; {
			n := 2 + int(rest[0]%4)
			rest = rest[1:]
			if len(rest) < 2*n {
				break
			}
			pts := make([]geo.Point, n)
			for j := range pts {
				pts[j] = at(rest[2*j], rest[2*j+1])
			}
			rest = rest[2*n:]
			users = append(users, trajectory.MustNew(trajectory.ID(len(users)), pts))
		}
		// Repeat the corpus under fresh IDs while it is small, so a
		// node's list often ties and overflows β.
		for k := len(users); k > 0 && len(users) < 64; k = len(users) {
			for _, u := range users[:k] {
				users = append(users, trajectory.MustNew(trajectory.ID(len(users)), u.Points))
			}
		}
		var seed [8]byte
		copy(seed[:], data)
		name := fmt.Sprintf("%x/%+v/%d users", binary.LittleEndian.Uint64(seed[:]), opts, len(users))
		assertBuildMatchesReference(t, name, users, opts)
	})
}
