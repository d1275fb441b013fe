package query

// The layout-generic search core. The TQ-tree exists in two in-memory
// representations — the mutable pointer tree (tqtree.Tree, node handle
// *tqtree.Node) and the immutable frozen columnar layout (tqtree.Frozen,
// node handle int32) — and every query algorithm in this package
// (Algorithm 1's divide-and-conquer service evaluation, Algorithm 3/4's
// best-first top-k search and its seed upper bound) is written once here
// over the tlayout abstraction and instantiated per layout. Both
// instantiations traverse nodes, carve components, and accumulate floats
// in exactly the same order, so their answers are bit-identical; the
// layouts differ only in how a node's own list is scanned (ScoreList).
//
// The layout adapters are tiny value structs around the tree pointer, so
// instantiation with a concrete adapter compiles to static calls — no
// interface dispatch on the hot path.

import (
	"container/heap"
	"sync"
	"sync/atomic"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// tlayout is the node-cursor interface both tree layouts implement. N is
// the node handle type; Nil() is the "no node" sentinel (nil pointer /
// -1 index).
type tlayout[N comparable] interface {
	Root() N
	Nil() N
	IsLeaf(N) bool
	// Child returns the node's i-th child slot (i in 0..3), Nil when the
	// slot is empty or past the node's children. Both layouts yield the
	// node's children in quadrant order under this iteration.
	Child(N, int) N
	Rect(N) geo.Rect
	ListLen(N) int
	OwnUB(N, service.Scenario) float64
	TreeUB(N, service.Scenario) float64
	FilterModeFor(service.Scenario) tqtree.FilterMode
	AncestorsCanServe(service.Scenario) bool
	ValidateScenario(service.Scenario) error
	// ScoreList runs zReduce over the node's own list against the EMBR
	// and exactly scores the survivors with ss, returning the summed
	// service and the survivor count. sco is caller-owned scratch the
	// pointer layout threads through to its reusable entry visitor; the
	// frozen layout ignores it.
	ScoreList(n N, embr geo.Rect, mode tqtree.FilterMode, ss *service.StopSet, sc service.Scenario, sco *entryScorer) (float64, int)
}

// tqtreeNode aliases tqtree.Node so layout instantiation sites outside
// this file stay short.
type tqtreeNode = tqtree.Node

// ptrLayout adapts the mutable pointer tree.
type ptrLayout struct{ t *tqtree.Tree }

func (l ptrLayout) Root() *tqtree.Node                       { return l.t.Root() }
func (l ptrLayout) Nil() *tqtree.Node                        { return nil }
func (l ptrLayout) IsLeaf(n *tqtree.Node) bool               { return n.IsLeaf() }
func (l ptrLayout) Child(n *tqtree.Node, i int) *tqtree.Node { return n.Child(i) }
func (l ptrLayout) Rect(n *tqtree.Node) geo.Rect             { return n.Rect() }
func (l ptrLayout) ListLen(n *tqtree.Node) int               { return n.ListLen() }
func (l ptrLayout) OwnUB(n *tqtree.Node, sc service.Scenario) float64 {
	return n.OwnUB(sc)
}
func (l ptrLayout) TreeUB(n *tqtree.Node, sc service.Scenario) float64 {
	return n.TreeUB(sc)
}
func (l ptrLayout) FilterModeFor(sc service.Scenario) tqtree.FilterMode {
	return l.t.FilterModeFor(sc)
}
func (l ptrLayout) AncestorsCanServe(sc service.Scenario) bool { return l.t.AncestorsCanServe(sc) }
func (l ptrLayout) ValidateScenario(sc service.Scenario) error { return l.t.ValidateScenario(sc) }
func (l ptrLayout) ScoreList(n *tqtree.Node, embr geo.Rect, mode tqtree.FilterMode, ss *service.StopSet, sc service.Scenario, sco *entryScorer) (float64, int) {
	sco.ss, sco.sc, sco.so, sco.n = ss, sc, 0, 0
	l.t.NodeCandidatesV(n, embr, mode, sco)
	return sco.so, sco.n
}

// frozenLayout adapts the immutable columnar layout. dead is the
// tombstone set an Epoch masks its base with; FrozenEngine leaves it nil.
type frozenLayout struct {
	f    *tqtree.Frozen
	dead trajectory.OrdinalSet
}

func (l frozenLayout) Root() int32                                 { return 0 }
func (l frozenLayout) Nil() int32                                  { return -1 }
func (l frozenLayout) IsLeaf(n int32) bool                         { return l.f.IsLeaf(n) }
func (l frozenLayout) Child(n int32, i int) int32                  { return l.f.Child(n, i) }
func (l frozenLayout) Rect(n int32) geo.Rect                       { return l.f.Rect(n) }
func (l frozenLayout) ListLen(n int32) int                         { return l.f.ListLen(n) }
func (l frozenLayout) OwnUB(n int32, sc service.Scenario) float64  { return l.f.OwnUB(n, sc) }
func (l frozenLayout) TreeUB(n int32, sc service.Scenario) float64 { return l.f.TreeUB(n, sc) }
func (l frozenLayout) FilterModeFor(sc service.Scenario) tqtree.FilterMode {
	return l.f.FilterModeFor(sc)
}
func (l frozenLayout) AncestorsCanServe(sc service.Scenario) bool { return l.f.AncestorsCanServe(sc) }
func (l frozenLayout) ValidateScenario(sc service.Scenario) error { return l.f.ValidateScenario(sc) }
func (l frozenLayout) ScoreList(n int32, embr geo.Rect, mode tqtree.FilterMode, ss *service.StopSet, sc service.Scenario, _ *entryScorer) (float64, int) {
	return l.f.ScoreNode(n, embr, mode, ss, sc, l.dead)
}

// validateQuery checks the parameters and their compatibility with the
// layout's index.
func validateQuery[N comparable, L tlayout[N]](l L, p Params) error {
	if err := p.validate(); err != nil {
		return err
	}
	return l.ValidateScenario(p.Scenario)
}

// evalNodeList is Algorithm 2: run zReduce over the node's own list
// against the component's EMBR and score the survivors exactly.
func evalNodeList[N comparable, L tlayout[N]](l L, n N, stops []geo.Point, p Params, mode tqtree.FilterMode, m *Metrics, sco *entryScorer) float64 {
	ll := l.ListLen(n)
	if len(stops) == 0 || ll == 0 {
		return 0
	}
	m.NodesVisited++
	embr := geo.RectOf(stops).Expand(p.Psi)
	ss := service.AcquireStopSet(stops, p.Psi, ll/4)
	so, scored := l.ScoreList(n, embr, mode, ss, p.Scenario, sco)
	ss.Release()
	m.EntriesScored += scored
	return so
}

// evaluateServiceG is Algorithm 1: recursively divide the facility's stop
// set along the quadtree and evaluate each visited node's own list on the
// local component.
//
// ancestors is l.AncestorsCanServe(p.Scenario). When it is false, a list
// the component cannot serve from (inOneQuadrant) would add exactly 0 and
// is skipped: on the way down to the facility's containing q-node that is
// every ancestor — the paper's containingQNode seed, which the best-first
// search takes too (seedBoundG) — and below it every node whose component
// keeps to one quadrant. The value is bit-identical either way.
func evaluateServiceG[N comparable, L tlayout[N]](l L, n N, stops []geo.Point, p Params, mode tqtree.FilterMode, ancestors bool, m *Metrics, arena *compArena) float64 {
	if n == l.Nil() || len(stops) == 0 {
		return 0
	}
	var so float64
	if ancestors || !inOneQuadrant(l, n, geo.RectOf(stops).Expand(p.Psi)) {
		so = evalNodeList(l, n, stops, p, mode, m, &arena.scorer)
	}
	if l.IsLeaf(n) {
		return so
	}
	for q := 0; q < 4; q++ {
		c := l.Child(n, q)
		if c == l.Nil() {
			continue
		}
		cstops, mark := arena.carve(stops, l.Rect(c), p.Psi)
		if len(cstops) == 0 {
			arena.release(mark)
			continue
		}
		so += evaluateServiceG(l, c, cstops, p, mode, ancestors, m, arena)
		arena.release(mark)
	}
	return so
}

// inOneQuadrant reports whether the EMBR e lies in n's cell strictly on
// one side of both its center lines. Then no entry n keeps can have both
// endpoints in e, which is what a list needs to serve when ancestors
// cannot (mode NeedBoth): such an entry has both endpoints in one
// quadrant, the first off the center lines, so the build (and Insert)
// routed it to that quadrant's child. Only a leaf keeps routable
// entries, and only the root entries outside its cell — so e must lie
// inside the root's. The comparisons are the build's own floats, so the
// test is exact.
func inOneQuadrant[N comparable, L tlayout[N]](l L, n N, e geo.Rect) bool {
	if l.IsLeaf(n) {
		return false
	}
	r := l.Rect(n)
	if n == l.Root() && !r.ContainsRect(e) {
		return false
	}
	cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	return (e.MaxX < cx || e.MinX > cx) && (e.MaxY < cy || e.MinY > cy)
}

// qfPairG is one ⟨q-node, facility-component⟩ pair of a search state: the
// node's own list is still unevaluated, and (unless listOnly) so is its
// subtree.
type qfPairG[N comparable] struct {
	node N
	// stops is the facility component local to this node (stops within
	// ψ of the node's rectangle).
	stops []geo.Point
	// listOnly marks ancestor pairs: only the node's own list is
	// pending; its children are covered by deeper pairs.
	listOnly bool
}

// relaxSpanG records one child component as an index range into the
// relaxation's stop buffer (the buffer may reallocate while growing, so
// slices are taken only after it is complete).
type relaxSpanG[N comparable] struct {
	node   N
	lo, hi int
}

// stateG is the paper's exploration state S for one facility: the
// frontier pairs, the exact service accumulated so far (aserve), and the
// optimistic remainder (hserve).
type stateG[N comparable] struct {
	fac    *trajectory.Facility
	pairs  []qfPairG[N]
	aserve float64
	hserve float64
	index  int // heap bookkeeping

	// Relaxation scratch, reused across this state's relaxations. pairs
	// and the component slices it references are backed by curPairs/
	// curStops; a relaxation writes the next frontier into nextPairs/
	// nextStops and swaps, so the buffers ping-pong and the state does
	// O(1) allocations over its whole exploration once they have grown.
	spans               []relaxSpanG[N]
	curStops, nextStops []geo.Point
	curPairs, nextPairs []qfPairG[N]
	scorer              entryScorer
}

func (s *stateG[N]) fserve() float64 { return s.aserve + s.hserve }

func (s *stateG[N]) done() bool { return len(s.pairs) == 0 || s.hserve == 0 }

// stateHeapG is a max-heap on fserve with facility ID as a deterministic
// tie-break.
type stateHeapG[N comparable] []*stateG[N]

func (h stateHeapG[N]) Len() int { return len(h) }
func (h stateHeapG[N]) Less(i, j int) bool {
	if h[i].fserve() != h[j].fserve() {
		return h[i].fserve() > h[j].fserve()
	}
	return h[i].fac.ID < h[j].fac.ID
}
func (h stateHeapG[N]) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *stateHeapG[N]) Push(x any) {
	s := x.(*stateG[N])
	s.index = len(*h)
	*h = append(*h, s)
}
func (h *stateHeapG[N]) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// seedBoundG walks from the root to the smallest q-node containing the
// facility's EMBR (the paper's containingQNode) and returns the upper
// bound a best-first search starts from: that subtree's `sub`, plus —
// when entries stored at proper ancestors can still be served (the
// multipoint variants) — the ancestors' own-list bounds. It allocates
// nothing when s is nil, which is how UpperBound reads the number alone;
// with a state it also enqueues the pairs the bound was summed over
// (ancestors as list-only pairs), so the search stays exact while hserve
// stays tight.
func seedBoundG[N comparable, L tlayout[N]](l L, f *trajectory.Facility, p Params, ancestors bool, s *stateG[N]) float64 {
	embr := f.EMBR(p.Psi)
	var ub float64
	n := l.Root()
	for c := childContaining(l, n, embr); c != l.Nil(); n, c = c, childContaining(l, c, embr) {
		if !ancestors || l.ListLen(n) == 0 {
			continue
		}
		ub += l.OwnUB(n, p.Scenario)
		if s != nil {
			s.pairs = append(s.pairs, qfPairG[N]{node: n, stops: f.Stops, listOnly: true})
		}
	}
	if s != nil {
		s.pairs = append(s.pairs, qfPairG[N]{node: n, stops: f.Stops})
	}
	return ub + l.TreeUB(n, p.Scenario)
}

// upperBoundG is seedBoundG as a query of its own: the bound alone.
func upperBoundG[N comparable, L tlayout[N]](l L, f *trajectory.Facility, p Params) float64 {
	return seedBoundG[N](l, f, p, l.AncestorsCanServe(p.Scenario), nil)
}

// childContaining returns n's child whose open cell contains r, Nil when
// n is a leaf or r straddles or touches its children's borders. The cell
// is open because the build routes a point on a center line to the
// higher quadrant: an entry stored at n can have an endpoint on the
// border of the closed cell that holds r.
func childContaining[N comparable, L tlayout[N]](l L, n N, r geo.Rect) N {
	if !l.IsLeaf(n) {
		for q := 0; q < 4; q++ {
			if c := l.Child(n, q); c != l.Nil() {
				if cr := l.Rect(c); r.MinX > cr.MinX && r.MaxX < cr.MaxX && r.MinY > cr.MinY && r.MaxY < cr.MaxY {
					return c
				}
			}
		}
	}
	return l.Nil()
}

// initialStateG seeds a facility's exploration: no exact service yet,
// the seed bound as its optimistic remainder.
func initialStateG[N comparable, L tlayout[N]](l L, f *trajectory.Facility, p Params, ancestors bool) *stateG[N] {
	s := &stateG[N]{fac: f}
	s.hserve = seedBoundG(l, f, p, ancestors, s)
	return s
}

// relaxStateG is Algorithm 4: evaluate every frontier pair's own list
// exactly (moving its value into aserve) and replace the pair with its
// intersecting children, rebuilding hserve from the children's `sub`.
//
// All children components of one relaxation are carved from a single
// backing buffer, recorded as index spans so the buffer may grow freely.
// The buffers live on the state and double-buffer between relaxations
// (the outgoing frontier still references the previous buffer while the
// next one is written), so steady-state relaxations allocate nothing.
func relaxStateG[N comparable, L tlayout[N]](l L, s *stateG[N], p Params, mode tqtree.FilterMode, m *Metrics) {
	m.Relaxations++
	spans := s.spans[:0]
	buf := s.nextStops[:0]
	var hserve float64
	for _, pr := range s.pairs {
		s.aserve += evalNodeList(l, pr.node, pr.stops, p, mode, m, &s.scorer)
		if pr.listOnly || l.IsLeaf(pr.node) {
			continue
		}
		for q := 0; q < 4; q++ {
			c := l.Child(pr.node, q)
			if c == l.Nil() {
				continue
			}
			ext := l.Rect(c).Expand(p.Psi)
			lo := len(buf)
			for _, st := range pr.stops {
				if ext.Contains(st) {
					buf = append(buf, st)
				}
			}
			if len(buf) == lo {
				continue
			}
			spans = append(spans, relaxSpanG[N]{node: c, lo: lo, hi: len(buf)})
			hserve += l.TreeUB(c, p.Scenario)
		}
	}
	next := s.nextPairs[:0]
	for _, sp := range spans {
		next = append(next, qfPairG[N]{node: sp.node, stops: buf[sp.lo:sp.hi:sp.hi]})
	}
	s.spans = spans
	s.nextStops, s.curStops = s.curStops, buf
	s.nextPairs, s.curPairs = s.curPairs, next
	s.pairs = next
	s.hserve = hserve
}

// topKG answers the kMaxRRST query with the best-first strategy of
// Algorithm 3 driven by the q-node `sub` upper bounds.
func topKG[N comparable, L tlayout[N]](l L, facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	if err := validateQuery[N](l, p); err != nil {
		return nil, Metrics{}, err
	}
	var m Metrics
	if k <= 0 || len(facilities) == 0 {
		return nil, m, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	mode := l.FilterModeFor(p.Scenario)
	ancestors := l.AncestorsCanServe(p.Scenario)

	h := make(stateHeapG[N], 0, len(facilities))
	for _, f := range facilities {
		h = append(h, initialStateG(l, f, p, ancestors))
	}
	heap.Init(&h)

	results := make([]Result, 0, k)
	for h.Len() > 0 && len(results) < k {
		s := heap.Pop(&h).(*stateG[N])
		// hserve == 0 means no unexplored pair can add service: aserve
		// is exact. This covers both the fully-explored case (empty
		// pairs) and the paper's safe early termination.
		if s.done() {
			results = append(results, Result{Facility: s.fac, Service: s.aserve})
			continue
		}
		relaxStateG(l, s, p, mode, &m)
		heap.Push(&h, s)
	}
	return results, m, nil
}

// serviceValuesG computes SO(U, f) for every facility in one batch,
// sharding the facilities across a pool of workers. The returned slice is
// indexed like facilities; ordering and merged Metrics are deterministic
// because each facility's traversal is independent. overlay, when
// non-nil, is the epoch whose delta scan each facility runs in the same
// step as its traversal, added after it. cc (nil means "never") is polled
// between facilities in every worker; a done context aborts the batch
// with its error and no partial answer.
func serviceValuesG[N comparable, L tlayout[N]](l L, facilities []*trajectory.Facility, p Params, workers int, cc *canceller, overlay *Epoch) ([]float64, Metrics, error) {
	if err := validateQuery[N](l, p); err != nil {
		return nil, Metrics{}, err
	}
	var m Metrics
	if len(facilities) == 0 {
		return nil, m, nil
	}
	mode, ancestors := l.FilterModeFor(p.Scenario), l.AncestorsCanServe(p.Scenario)
	out := make([]float64, len(facilities))
	workers = ResolveWorkers(workers, len(facilities))
	stops := maxStops(facilities)
	if workers == 1 {
		arena := acquireCompArena(stops)
		for i, f := range facilities {
			if err := cc.stopped(); err != nil {
				putCompArena(arena)
				return nil, m, err
			}
			out[i] = evaluateServiceG(l, l.Root(), f.Stops, p, mode, ancestors, &m, arena) + overlay.deltaService(f, p, &m)
		}
		putCompArena(arena)
		return out, m, nil
	}
	var next atomic.Int64
	perWorker := make([]Metrics, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			arena := acquireCompArena(stops)
			wm := &perWorker[w]
			for cc.stopped() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(facilities) {
					break
				}
				out[i] = evaluateServiceG(l, l.Root(), facilities[i].Stops, p, mode, ancestors, wm, arena) + overlay.deltaService(facilities[i], p, wm)
			}
			putCompArena(arena)
		}(w)
	}
	wg.Wait()
	for _, wm := range perWorker {
		m.Add(wm)
	}
	if err := cc.stopped(); err != nil {
		return nil, m, err
	}
	return out, m, nil
}
