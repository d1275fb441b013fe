// Package query implements kMaxRRST processing over the frozen TQ-tree:
//
//   - Algorithm 1/2 of the paper: divide-and-conquer service-value
//     computation (evaluateService + evalNodeList in layout.go, with
//     the zReduce pruning supplied by the tqtree package).
//   - Algorithm 3/4: best-first top-k facility search driven by the
//     q-node `sub` upper bounds (topK + relaxState in layout.go), on
//     FrozenEngine.TopK — what the paper's figures time.
//   - Coverage: the per-user point masks of one facility (coverService),
//     which MaxkCovRST (internal/maxcov) and ServedUsers read.
//   - The paper's baseline (BL): per-facility circular range queries over
//     a traditional point quadtree.
//   - Results (executor.go): the sort-and-cut from a batch of exact
//     values to a top-k answer, which is the whole served top-k of every
//     public index type (internal/shard's scatter, one shard or several)
//     and of the distributed frontend (internal/dist) — across disjoint
//     parts of a corpus no bound this cheap has ever cut a facility
//     (EXPERIMENTS.md, tqbench -exp bound).
//
// FrozenEngine searches one frozen base; an Epoch (epoch.go) searches a
// base with tombstones masked out plus its delta overlay, through the
// same code in layout.go.
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
// out to several engines.
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
	// Relaxations counts best-first state relaxations (FrozenEngine.TopK
	// only; an exact batch reports 0).
	Relaxations int
}

// Engine holds a pointer TQ-tree, which nothing queries: the one caller
// left (the repository benchmark) freezes it for maxcov.TwoStepGreedy.
type Engine struct {
	tree *tqtree.Tree
}

// NewEngine wraps a built TQ-tree; users is not read.
func NewEngine(tree *tqtree.Tree, users *trajectory.Set) *Engine {
	return &Engine{tree: tree}
}

// Tree returns the underlying TQ-tree.
func (e *Engine) Tree() *tqtree.Tree { return e.tree }

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

// coverageMode returns the zReduce filter that is sound for coverage
// collection: any entry with any covered point must survive, because
// combined (AGG) semantics can join partial coverage across facilities.
func coverageMode(v tqtree.Variant) tqtree.FilterMode {
	if v == tqtree.FullTrajectory {
		return tqtree.NeedOverlap
	}
	return tqtree.NeedAny
}

// coverage runs the coverage walk over l from the root; p must be valid
// for l.
func coverage(l frozenLayout, f *trajectory.Facility, p Params, m *Metrics) service.Coverage {
	cov := service.Coverage{}
	arena := acquireCompArena(len(f.Stops))
	coverService(l, 0, f.Stops, p, coverageMode(l.f.Variant()), cov, m, arena)
	putCompArena(arena)
	return cov
}

// coverService is the coverage walk: Algorithm 1's descent, recording in
// cov which points of which users the local component's stops serve. It
// scans every visited node's own list — partial coverage counts under
// combined semantics, so no list is skipped — through the bucket-MBR and
// entry filter alone (Frozen.AppendCovered).
func coverService(l frozenLayout, n int32, stops []geo.Point, p Params, mode tqtree.FilterMode, cov service.Coverage, m *Metrics, arena *compArena) {
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
			coverPoints(cov, tab.ID(ti), pts, lo, hi, stride, ss)
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
			coverService(l, c, cstops, p, mode, cov, m, arena)
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

// coverPoints sets in id's mask, allocated in cov on first touch, every
// point of pts[lo:hi:stride] the stops serve.
func coverPoints(cov service.Coverage, id trajectory.ID, pts []geo.Point, lo, hi, stride int, ss *service.StopSet) {
	var m service.Mask
	for i := lo; i < hi; i += stride {
		if !ss.Served(pts[i]) {
			continue
		}
		if m == nil {
			if m = cov[id]; m == nil {
				m = service.NewMask(len(pts))
				cov[id] = m
			}
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

// ServedUsers answers the reverse range search underlying kMaxRRST for a
// single facility from its coverage: every user with positive service,
// with their service values, ordered by value descending (ties by ID).
// user resolves a covered ID to its trajectory. This is the per-facility
// view the paper's Scenario examples motivate ("which commuters would
// this route convert?").
func ServedUsers(cov service.Coverage, user func(trajectory.ID) *trajectory.Trajectory, v tqtree.Variant, sc service.Scenario) []UserService {
	out := make([]UserService, 0, len(cov))
	for id, mask := range cov {
		if val := ObjectiveFromMask(v, sc, user(id), mask); val > 0 {
			out = append(out, UserService{User: id, Value: val})
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

// ExactServiceValue is the brute-force oracle: SO(U, f) by direct scan,
// used to validate every accelerated path.
func ExactServiceValue(variant tqtree.Variant, sc service.Scenario, users *trajectory.Set, stops []geo.Point, psi float64) float64 {
	var total float64
	for _, u := range users.All {
		total += ObjectiveFromMask(variant, sc, u, service.MaskOf(u, stops, psi))
	}
	return total
}
