// Package query implements kMaxRRST processing over the TQ-tree:
//
//   - Algorithm 1/2 of the paper: divide-and-conquer service-value
//     computation (evaluateServiceG + evalNodeList in layout.go, with
//     the zReduce pruning supplied by the tqtree package).
//   - Algorithm 3/4: best-first top-k facility search driven by the
//     q-node `sub` upper bounds (topKG + relaxStateG in layout.go), on
//     Engine.TopK and FrozenEngine.TopK — what the paper's figures time.
//   - The paper's baseline (BL): per-facility circular range queries over
//     a traditional point quadtree.
//   - Results (executor.go): the sort-and-cut from a batch of exact
//     values to a top-k answer, which is the whole served top-k of every
//     public index type (internal/shard's scatter, one shard or several)
//     and of the distributed frontend (internal/dist) — across disjoint
//     parts of a corpus no bound this cheap has ever cut a facility
//     (EXPERIMENTS.md, tqbench -exp bound).
//
// The search core in layout.go is generic over the two tree layouts —
// the mutable pointer tree (Engine) and the frozen columnar index
// (FrozenEngine) — so both produce bit-identical answers from one
// implementation.
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
	// Relaxations counts best-first state relaxations (Engine.TopK and
	// FrozenEngine.TopK only; an exact batch reports 0).
	Relaxations int
}

// Engine answers kMaxRRST queries over a TQ-tree.
type Engine struct {
	tree  *tqtree.Tree
	users *trajectory.Set
}

// NewEngine wraps an existing TQ-tree. users must be the set the tree
// indexes (needed to translate coverage masks back into service values).
func NewEngine(tree *tqtree.Tree, users *trajectory.Set) *Engine {
	return &Engine{tree: tree, users: users}
}

// Tree returns the underlying TQ-tree.
func (e *Engine) Tree() *tqtree.Tree { return e.tree }

// Users returns the indexed user set.
func (e *Engine) Users() *trajectory.Set { return e.users }

// ValidateScenario checks that queries under sc are exact on the tree.
func (e *Engine) ValidateScenario(sc service.Scenario) error { return e.tree.ValidateScenario(sc) }

// ServiceValue computes SO(U, f) exactly via the divide-and-conquer
// traversal of Algorithm 1. The returned Metrics describe the work done.
func (e *Engine) ServiceValue(f *trajectory.Facility, p Params) (float64, Metrics, error) {
	l := ptrLayout{e.tree}
	if err := validateQuery[*tqtreeNode](l, p); err != nil {
		return 0, Metrics{}, err
	}
	var m Metrics
	mode := e.tree.FilterModeFor(p.Scenario)
	arena := acquireCompArena(len(f.Stops))
	so := evaluateServiceG(l, e.tree.Root(), f.Stops, p, mode, l.AncestorsCanServe(p.Scenario), &m, arena)
	putCompArena(arena)
	return so, m, nil
}

// compArena is a stack-discipline buffer for facility components during a
// depth-first traversal: children components are carved from the buffer
// and released (truncated) when their recursion returns, so a whole query
// does O(1) component allocations instead of one per visited node. It
// also carries the reusable candidate visitors, so a traversal passes no
// closures (which would each cost a heap allocation) to the tree.
type compArena struct {
	buf     []geo.Point
	scorer  entryScorer
	coverer entryCoverer
}

// entryScorer is the EntryVisitor for exact service accumulation
// (Algorithm 2's inner loop). Reused across node visits via the arena or
// the exploration state; the survivor count is accumulated locally and
// folded into Metrics by evalNodeList.
type entryScorer struct {
	ss *service.StopSet
	sc service.Scenario
	so float64
	n  int
}

func (v *entryScorer) VisitEntry(en *tqtree.Entry) {
	v.n++
	v.so += en.ServeSet(v.sc, v.ss)
}

// entryCoverer is the EntryVisitor recording coverage masks.
type entryCoverer struct {
	ss            *service.StopSet
	cov           service.Coverage
	m             *Metrics
	endpointsOnly bool
}

func (v *entryCoverer) VisitEntry(en *tqtree.Entry) {
	v.m.EntriesScored++
	en.CoverInto(v.cov, v.ss, v.endpointsOnly)
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

func putCompArena(a *compArena) {
	// Drop visitor references so the pool doesn't pin the caller's
	// coverage maps or metrics between queries.
	a.scorer = entryScorer{}
	a.coverer = entryCoverer{}
	compArenaPool.Put(a)
}

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
func coverageMode(t *tqtree.Tree) tqtree.FilterMode {
	if t.Variant() == tqtree.FullTrajectory {
		return tqtree.NeedOverlap
	}
	return tqtree.NeedAny
}

// Coverage computes the per-user coverage masks of a facility: which
// points of which users its stops cover. This is the building block of
// the MaxkCovRST solvers in internal/maxcov.
func (e *Engine) Coverage(f *trajectory.Facility, p Params) (service.Coverage, Metrics, error) {
	if err := p.validate(); err != nil {
		return nil, Metrics{}, err
	}
	if err := e.tree.ValidateScenario(p.Scenario); err != nil {
		return nil, Metrics{}, err
	}
	var m Metrics
	cov := service.Coverage{}
	mode := coverageMode(e.tree)
	endpointsOnly := e.tree.Variant() == tqtree.TwoPoint
	arena := acquireCompArena(len(f.Stops))
	e.coverService(e.tree.Root(), f.Stops, p, mode, endpointsOnly, cov, &m, arena)
	putCompArena(arena)
	return cov, m, nil
}

func (e *Engine) coverService(n *tqtree.Node, stops []geo.Point, p Params, mode tqtree.FilterMode, endpointsOnly bool, cov service.Coverage, m *Metrics, arena *compArena) {
	if n == nil || len(stops) == 0 {
		return
	}
	if n.ListLen() > 0 {
		m.NodesVisited++
		embr := geo.RectOf(stops).Expand(p.Psi)
		ss := service.AcquireStopSet(stops, p.Psi, n.ListLen()/4)
		cv := &arena.coverer
		cv.ss, cv.cov, cv.m, cv.endpointsOnly = ss, cov, m, endpointsOnly
		e.tree.NodeCandidatesV(n, embr, mode, cv)
		ss.Release()
	}
	if n.IsLeaf() {
		return
	}
	for q := 0; q < 4; q++ {
		c := n.Child(q)
		if c == nil {
			continue
		}
		cstops, mark := arena.carve(stops, c.Rect(), p.Psi)
		if len(cstops) == 0 {
			arena.release(mark)
			continue
		}
		e.coverService(c, cstops, p, mode, endpointsOnly, cov, m, arena)
		arena.release(mark)
	}
}

// UserService is one served user in a reverse range search answer.
type UserService struct {
	User trajectory.ID
	// Value is S(u, f) under the query's scenario.
	Value float64
}

// ServedUsers answers the reverse range search underlying kMaxRRST for a
// single facility: every user with positive service, with their service
// values, ordered by value descending (ties by ID). This is the per-
// facility view the paper's Scenario examples motivate ("which commuters
// would this route convert?").
func (e *Engine) ServedUsers(f *trajectory.Facility, p Params) ([]UserService, Metrics, error) {
	cov, m, err := e.Coverage(f, p)
	if err != nil {
		return nil, m, err
	}
	out := make([]UserService, 0, len(cov))
	for id, mask := range cov {
		u := e.users.ByID(id)
		if u == nil {
			continue
		}
		if v := ObjectiveFromMask(e.tree.Variant(), p.Scenario, u, mask); v > 0 {
			out = append(out, UserService{User: id, Value: v})
		}
	}
	sortUserServices(out)
	return out, m, nil
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
