// Package query implements kMaxRRST processing over the frozen TQ-tree:
//
//   - Algorithm 1/2 of the paper: divide-and-conquer service-value
//     computation (evaluateService + evalNodeList in layout.go, with
//     the zReduce pruning supplied by the tqtree package).
//   - Algorithm 3/4: best-first top-k facility search driven by the
//     q-node `sub` upper bounds (BestFirstTopK + relaxState in
//     layout.go) and the bound it seeds each facility with (SeedBound):
//     two functions over one base, which the paper's figures time.
//   - Coverage: a facility batch's user × facility table of point masks
//     (cover, coverService), which MaxkCovRST (internal/maxcov) and
//     ServedUsers read.
//   - The paper's baseline (BL): per-facility circular range queries over
//     a traditional point quadtree.
//   - Results (executor.go): the sort-and-cut from a batch of exact
//     values to a top-k answer, which is the whole served top-k of every
//     public index type (internal/shard's Scatter, one shard or several)
//     and of the distributed frontend (internal/dist) — across disjoint
//     parts of a corpus no bound this cheap has ever cut a facility
//     (EXPERIMENTS.md, tqbench -exp bound).
//
// An Epoch (epoch.go) is the one serving unit: a frozen base with
// tombstones masked out plus a delta overlay, and every shard of every
// index serves as one — a frozen shard as an epoch with nothing pending.
// Epoch and Baseline are the package's query types; the best-first
// search runs over an epoch's base through the same code in layout.go.
package query

import (
	"fmt"
	"sort"
	"sync"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Params are the query-time knobs shared by every entry point.
type Params struct {
	// Scenario selects the service semantics (Binary/PointCount/Length).
	Scenario service.Scenario
	// Psi is the distance threshold ψ: a user point can be served by a
	// stop within ψ.
	Psi float64
}

// Validate checks the parameters independently of any tree — exposed for
// layers (e.g. internal/shard) that validate once before fanning a query
// out to several epochs.
func (p Params) Validate() error { return p.validate() }

func (p Params) validate() error {
	if !p.Scenario.Valid() {
		return fmt.Errorf("query: invalid scenario %d", int(p.Scenario))
	}
	if p.Psi < 0 {
		return fmt.Errorf("query: negative psi %v", p.Psi)
	}
	return nil
}

// Metrics reports work done by a query, for diagnostics and experiments.
type Metrics struct {
	// NodesVisited counts q-node list evaluations.
	NodesVisited int
	// EntriesScored counts exact per-entry service computations (entries
	// surviving zReduce).
	EntriesScored int
	// Relaxations counts best-first state relaxations (BestFirstTopK
	// only; an exact batch reports 0).
	Relaxations int
}

// compArena is a stack-discipline buffer for facility components during a
// depth-first traversal: children components are carved from the buffer
// and released (truncated) when their recursion returns, so a whole query
// does O(1) component allocations instead of one per visited node. hits
// is the coverage walk's reusable list of surviving entries.
type compArena struct {
	buf  []geo.Point
	hits []int32
}

// compArenaPool recycles arenas across queries: the traversal releases
// every carve before returning, so a released arena holds no live
// component slices and its backing buffer can be handed to the next
// query verbatim.
var compArenaPool = sync.Pool{New: func() any { return new(compArena) }}

func acquireCompArena(stops int) *compArena {
	a := compArenaPool.Get().(*compArena)
	if want := 4*stops + 16; cap(a.buf) < want {
		a.buf = make([]geo.Point, 0, want)
	}
	a.buf = a.buf[:0]
	return a
}

func putCompArena(a *compArena) { compArenaPool.Put(a) }

// carve appends the stops within rect expanded by psi and returns them as
// a capacity-clamped slice. Release by truncating to the returned mark.
func (a *compArena) carve(stops []geo.Point, rect geo.Rect, psi float64) (comp []geo.Point, mark int) {
	mark = len(a.buf)
	ext := rect.Expand(psi)
	for _, s := range stops {
		if ext.Contains(s) {
			a.buf = append(a.buf, s)
		}
	}
	return a.buf[mark:len(a.buf):len(a.buf)], mark
}

func (a *compArena) release(mark int) { a.buf = a.buf[:mark] }

// cover builds the coverage table of a facility batch over l plus an
// overlay: per facility, the coverage walk from the root, then a scan of
// delta with the masks a rebuild's entries would give its trajectories
// (the whole overlay counted as one q-node list). Users are keyed by base
// table ordinal, then n+i for delta[i], through one slot array, and
// resolved once: a view of the base table, or the overlay's own
// trajectory. p must be valid for l.
func cover(l frozenLayout, facilities []*trajectory.Facility, p Params, delta []*trajectory.Trajectory, m *Metrics) *service.CoverTable {
	tab, v := l.f.Table(), l.f.Variant()
	n := tab.Len()
	// Any entry with any covered point must survive zReduce: combined
	// semantics join partial coverage across facilities.
	mode := tqtree.NeedAny
	if v == tqtree.FullTrajectory {
		mode = tqtree.NeedOverlap
	}
	b := service.NewCoverBuilder(n + len(delta))
	arena := acquireCompArena(maxStops(facilities))
	for _, f := range facilities {
		coverService(l, 0, f.Stops, p, mode, b, m, arena)
		if len(delta) > 0 {
			m.NodesVisited++
			embr := f.EMBR(p.Psi)
			ss := service.AcquireStopSet(f.Stops, p.Psi, len(delta)/4)
			for i, u := range delta {
				if embr.Intersects(u.MBR()) {
					m.EntriesScored++
					lo, hi, stride := coverSpan(v, -1, u.Len())
					coverPoints(b, int32(n+i), u.Points, lo, hi, stride, ss)
				}
			}
			ss.Release()
		}
		b.Next()
	}
	putCompArena(arena)
	ords := b.Ordinals()
	users := make([]*trajectory.Trajectory, len(ords))
	views := make([]trajectory.Trajectory, len(ords))
	for s, o := range ords {
		if int(o) < n {
			tab.View(o, &views[s])
			users[s] = &views[s]
		} else {
			users[s] = delta[int(o)-n]
		}
	}
	return b.Build(users)
}

// coverService is the coverage walk: Algorithm 1's descent, recording in
// b which points of which users the local component's stops serve, keyed
// by table ordinal. It scans every visited node's own list — partial
// coverage counts under combined semantics, so no list is skipped —
// through the bucket-MBR and entry filter alone (Frozen.AppendCovered).
func coverService(l frozenLayout, n int32, stops []geo.Point, p Params, mode tqtree.FilterMode, b *service.CoverBuilder, m *Metrics, arena *compArena) {
	if len(stops) == 0 {
		return
	}
	if ll := l.f.ListLen(n); ll > 0 {
		m.NodesVisited++
		ss := service.AcquireStopSet(stops, p.Psi, ll/4)
		arena.hits = l.f.AppendCovered(arena.hits[:0], n, geo.RectOf(stops).Expand(p.Psi), mode, l.dead)
		m.EntriesScored += len(arena.hits)
		tab, v := l.f.Table(), l.f.Variant()
		for _, e := range arena.hits {
			ti := l.f.EntryOrdinal(e)
			pts := tab.Points(ti)
			lo, hi, stride := coverSpan(v, int(l.f.EntrySegment(e)), len(pts))
			coverPoints(b, ti, pts, lo, hi, stride, ss)
		}
		ss.Release()
	}
	if l.f.IsLeaf(n) {
		return
	}
	for q := 0; q < 4; q++ {
		c := l.f.Child(n, q)
		if c == nilNode {
			continue
		}
		cstops, mark := arena.carve(stops, l.f.Rect(c), p.Psi)
		if len(cstops) > 0 {
			coverService(l, c, cstops, p, mode, b, m, arena)
		}
		arena.release(mark)
	}
}

// coverSpan returns the points an entry's coverage tests, as pts[lo:hi]
// every stride-th: a segment's two endpoints; a TwoPoint trajectory's
// source and destination only — the bits Binary combined semantics read,
// and the only points guaranteed to lie inside its storage node; or every
// point of a whole trajectory. seg is -1 for a whole trajectory of n
// points.
func coverSpan(v tqtree.Variant, seg, n int) (lo, hi, stride int) {
	switch {
	case seg >= 0:
		return seg, seg + 2, 1
	case v == tqtree.TwoPoint:
		return 0, n, n - 1
	}
	return 0, n, 1
}

// coverPoints sets in the mask of the user at ordinal ord, whose row b adds
// on first touch, every point of pts[lo:hi:stride] the stops serve.
func coverPoints(b *service.CoverBuilder, ord int32, pts []geo.Point, lo, hi, stride int, ss *service.StopSet) {
	var m service.Mask
	for i := lo; i < hi; i += stride {
		if !ss.Served(pts[i]) {
			continue
		}
		if m == nil {
			m = b.Mask(ord, len(pts))
		}
		m.Set(i)
	}
}

// UserService is one served user in a reverse range search answer.
type UserService struct {
	User trajectory.ID
	// Value is S(u, f) under the query's scenario.
	Value float64
}

// ServedUsers answers the reverse range search underlying kMaxRRST for the
// first facility of a coverage table: every user with positive service,
// with their service values, ordered by value descending (ties by ID).
// This is the per-facility view the paper's Scenario examples motivate
// ("which commuters would this route convert?").
func ServedUsers(t *service.CoverTable, v tqtree.Variant, sc service.Scenario) []UserService {
	rows := t.Rows(0)
	out := make([]UserService, 0, len(rows))
	for _, r := range rows {
		u := t.Users[r.Slot]
		if val := ObjectiveFromMask(v, sc, u, r.Mask); val > 0 {
			out = append(out, UserService{User: u.ID, Value: val})
		}
	}
	sortUserServices(out)
	return out
}

func sortUserServices(us []UserService) {
	sort.Slice(us, func(i, j int) bool {
		if us[i].Value != us[j].Value {
			return us[i].Value > us[j].Value
		}
		return us[i].User < us[j].User
	})
}

// ObjectiveFromMask translates a coverage mask into the objective value
// used for a given index variant. It equals service.ValueFromMask except
// for Segmented+Binary, where the paper's segmented experiments count
// served segments (each consecutive pair with both endpoints covered).
func ObjectiveFromMask(variant tqtree.Variant, sc service.Scenario, u *trajectory.Trajectory, mask service.Mask) float64 {
	if variant == tqtree.Segmented && sc == service.Binary {
		served := 0
		for i := 0; i < u.NumSegments(); i++ {
			if mask.Get(i) && mask.Get(i+1) {
				served++
			}
		}
		return float64(served)
	}
	return service.ValueFromMask(sc, u, mask)
}
