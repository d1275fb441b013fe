package query

// The search core over the frozen columnar layout (tqtree.Frozen, node
// handle int32): Algorithm 1's divide-and-conquer service evaluation,
// Algorithm 3/4's best-first top-k search and its seed upper bound, and
// the coverage walk MaxkCovRST reads. An Epoch runs it with its
// tombstones masked out and adds its delta overlay's scan; BestFirstTopK
// and SeedBound, the figures' instruments, run it over a base as built.

import (
	"container/heap"
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// frozenLayout is a frozen base as the search sees it. dead is the
// tombstone set an Epoch masks its base with; the best-first search
// leaves it nil.
type frozenLayout struct {
	f    *tqtree.Frozen
	dead trajectory.OrdinalSet
}

// nilNode is the "no node" handle.
const nilNode int32 = -1

// evalNodeList is Algorithm 2: run zReduce over the node's own list
// against the component's EMBR and score the survivors exactly.
func evalNodeList(l frozenLayout, n int32, stops []geo.Point, p Params, mode tqtree.FilterMode, m *Metrics) float64 {
	ll := l.f.ListLen(n)
	if len(stops) == 0 || ll == 0 {
		return 0
	}
	m.NodesVisited++
	embr := geo.RectOf(stops).Expand(p.Psi)
	ss := service.AcquireStopSet(stops, p.Psi, ll/4)
	so, scored := l.f.ScoreNode(n, embr, mode, ss, p.Scenario, l.dead)
	ss.Release()
	m.EntriesScored += scored
	return so
}

// evaluateService is Algorithm 1: recursively divide the facility's stop
// set along the quadtree and evaluate each visited node's own list on the
// local component.
//
// ancestors is l.f.AncestorsCanServe(p.Scenario). When it is false, a list
// the component cannot serve from (inOneQuadrant) would add exactly 0 and
// is skipped: on the way down to the facility's containing q-node that is
// every ancestor — the paper's containingQNode seed, which the best-first
// search takes too (seedBound) — and below it every node whose component
// keeps to one quadrant. The value is bit-identical either way.
func evaluateService(l frozenLayout, n int32, stops []geo.Point, p Params, mode tqtree.FilterMode, ancestors bool, m *Metrics, arena *compArena) float64 {
	if n == nilNode || len(stops) == 0 {
		return 0
	}
	var so float64
	if ancestors || !inOneQuadrant(l.f, n, geo.RectOf(stops).Expand(p.Psi)) {
		so = evalNodeList(l, n, stops, p, mode, m)
	}
	if l.f.IsLeaf(n) {
		return so
	}
	for q := 0; q < 4; q++ {
		c := l.f.Child(n, q)
		if c == nilNode {
			continue
		}
		cstops, mark := arena.carve(stops, l.f.Rect(c), p.Psi)
		if len(cstops) == 0 {
			arena.release(mark)
			continue
		}
		so += evaluateService(l, c, cstops, p, mode, ancestors, m, arena)
		arena.release(mark)
	}
	return so
}

// inOneQuadrant reports whether the EMBR e lies in n's cell strictly on
// one side of both its center lines. Then no entry n keeps can have both
// endpoints in e, which is what a list needs to serve when ancestors
// cannot (mode NeedBoth): such an entry has both endpoints in one
// quadrant, the first off the center lines, so the build routed it to
// that quadrant's child. Only a leaf keeps routable entries. A built root
// holds no entry outside its cell, but FrozenFromColumns does not check
// that entries lie inside the root's cell, so a restored snapshot's root
// may — hence e must also lie inside the root's. The comparisons are the
// build's own floats, so the test is exact.
func inOneQuadrant(f *tqtree.Frozen, n int32, e geo.Rect) bool {
	if f.IsLeaf(n) {
		return false
	}
	r := f.Rect(n)
	if n == 0 && !r.ContainsRect(e) {
		return false
	}
	cx, cy := (r.MinX+r.MaxX)/2, (r.MinY+r.MaxY)/2
	return (e.MaxX < cx || e.MinX > cx) && (e.MaxY < cy || e.MinY > cy)
}

// qfPair is one ⟨q-node, facility-component⟩ pair of a search state: the
// node's own list is still unevaluated, and (unless listOnly) so is its
// subtree.
type qfPair struct {
	node int32
	// stops is the facility component local to this node (stops within
	// ψ of the node's rectangle).
	stops []geo.Point
	// listOnly marks ancestor pairs: only the node's own list is
	// pending; its children are covered by deeper pairs.
	listOnly bool
}

// relaxSpan records one child component as an index range into the
// relaxation's stop buffer (the buffer may reallocate while growing, so
// slices are taken only after it is complete).
type relaxSpan struct {
	node   int32
	lo, hi int
}

// state is the paper's exploration state S for one facility: the
// frontier pairs, the exact service accumulated so far (aserve), and the
// optimistic remainder (hserve).
type state struct {
	fac    *trajectory.Facility
	pairs  []qfPair
	aserve float64
	hserve float64
	index  int // heap bookkeeping

	// Relaxation scratch, reused across this state's relaxations. pairs
	// and the component slices it references are backed by curPairs/
	// curStops; a relaxation writes the next frontier into nextPairs/
	// nextStops and swaps, so the buffers ping-pong and the state does
	// O(1) allocations over its whole exploration once they have grown.
	spans               []relaxSpan
	curStops, nextStops []geo.Point
	curPairs, nextPairs []qfPair
}

func (s *state) fserve() float64 { return s.aserve + s.hserve }

func (s *state) done() bool { return len(s.pairs) == 0 || s.hserve == 0 }

// stateHeap is a max-heap on fserve with facility ID as a deterministic
// tie-break.
type stateHeap []*state

func (h stateHeap) Len() int { return len(h) }
func (h stateHeap) Less(i, j int) bool {
	if h[i].fserve() != h[j].fserve() {
		return h[i].fserve() > h[j].fserve()
	}
	return h[i].fac.ID < h[j].fac.ID
}
func (h stateHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *stateHeap) Push(x any) {
	s := x.(*state)
	s.index = len(*h)
	*h = append(*h, s)
}
func (h *stateHeap) Pop() any {
	old := *h
	n := len(old)
	s := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return s
}

// seedBound walks from the root to the smallest q-node containing the
// facility's EMBR (the paper's containingQNode) and returns the upper
// bound a best-first search starts from: that subtree's `sub`, plus —
// when entries stored at proper ancestors can still be served (the
// multipoint variants) — the ancestors' own-list bounds. It allocates
// nothing when s is nil, which is how UpperBound reads the number alone;
// with a state it also enqueues the pairs the bound was summed over
// (ancestors as list-only pairs), so the search stays exact while hserve
// stays tight.
func seedBound(l frozenLayout, f *trajectory.Facility, p Params, ancestors bool, s *state) float64 {
	embr := f.EMBR(p.Psi)
	var ub float64
	n := int32(0)
	for c := childContaining(l.f, n, embr); c != nilNode; n, c = c, childContaining(l.f, c, embr) {
		if !ancestors || l.f.ListLen(n) == 0 {
			continue
		}
		ub += l.f.OwnUB(n, p.Scenario)
		if s != nil {
			s.pairs = append(s.pairs, qfPair{node: n, stops: f.Stops, listOnly: true})
		}
	}
	if s != nil {
		s.pairs = append(s.pairs, qfPair{node: n, stops: f.Stops})
	}
	return ub + l.f.TreeUB(n, p.Scenario)
}

// SeedBound returns the bound BestFirstTopK seeds f's search with over
// base — the `sub` of the smallest q-node containing f's EMBR, plus
// ancestor own-list bounds where those can serve: a sound overestimate
// of SO(U, f), read in one descent without allocating. It does not
// validate p. No serving path consults it: it is what tqbench -exp bound
// measures (a bound would have to rank fewer than N − k facilities above
// the k-th value before it could save a served top-k anything) and what
// Epoch.UpperBound adds its overlay's bound to.
func SeedBound(base *tqtree.Frozen, f *trajectory.Facility, p Params) float64 {
	defer runtime.KeepAlive(base) // see Epoch.ServiceValue
	return seedBound(frozenLayout{f: base}, f, p, base.AncestorsCanServe(p.Scenario), nil)
}

// childContaining returns n's child whose open cell contains r, nilNode when
// n is a leaf or r straddles or touches its children's borders. The cell
// is open because the build routes a point on a center line to the
// higher quadrant: an entry stored at n can have an endpoint on the
// border of the closed cell that holds r.
func childContaining(f *tqtree.Frozen, n int32, r geo.Rect) int32 {
	if !f.IsLeaf(n) {
		for q := 0; q < 4; q++ {
			if c := f.Child(n, q); c != nilNode {
				if cr := f.Rect(c); r.MinX > cr.MinX && r.MaxX < cr.MaxX && r.MinY > cr.MinY && r.MaxY < cr.MaxY {
					return c
				}
			}
		}
	}
	return nilNode
}

// initialState seeds a facility's exploration: no exact service yet,
// the seed bound as its optimistic remainder.
func initialState(l frozenLayout, f *trajectory.Facility, p Params, ancestors bool) *state {
	s := &state{fac: f}
	s.hserve = seedBound(l, f, p, ancestors, s)
	return s
}

// relaxState is Algorithm 4: evaluate every frontier pair's own list
// exactly (moving its value into aserve) and replace the pair with its
// intersecting children, rebuilding hserve from the children's `sub`.
//
// All children components of one relaxation are carved from a single
// backing buffer, recorded as index spans so the buffer may grow freely.
// The buffers live on the state and double-buffer between relaxations
// (the outgoing frontier still references the previous buffer while the
// next one is written), so steady-state relaxations allocate nothing.
func relaxState(l frozenLayout, s *state, p Params, mode tqtree.FilterMode, m *Metrics) {
	m.Relaxations++
	spans := s.spans[:0]
	buf := s.nextStops[:0]
	var hserve float64
	for _, pr := range s.pairs {
		s.aserve += evalNodeList(l, pr.node, pr.stops, p, mode, m)
		if pr.listOnly || l.f.IsLeaf(pr.node) {
			continue
		}
		for q := 0; q < 4; q++ {
			c := l.f.Child(pr.node, q)
			if c == nilNode {
				continue
			}
			ext := l.f.Rect(c).Expand(p.Psi)
			lo := len(buf)
			for _, st := range pr.stops {
				if ext.Contains(st) {
					buf = append(buf, st)
				}
			}
			if len(buf) == lo {
				continue
			}
			spans = append(spans, relaxSpan{node: c, lo: lo, hi: len(buf)})
			hserve += l.f.TreeUB(c, p.Scenario)
		}
	}
	next := s.nextPairs[:0]
	for _, sp := range spans {
		next = append(next, qfPair{node: sp.node, stops: buf[sp.lo:sp.hi:sp.hi]})
	}
	s.spans = spans
	s.nextStops, s.curStops = s.curStops, buf
	s.nextPairs, s.curPairs = s.curPairs, next
	s.pairs = next
	s.hserve = hserve
}

// BestFirstTopK answers the kMaxRRST query over base — the k facilities
// with the highest service value, in non-increasing order — with the
// best-first strategy of Algorithm 3 driven by the q-node `sub` upper
// bounds. It is what the paper's figures time; every served top-k is one
// exact Epoch pass plus Results instead.
func BestFirstTopK(base *tqtree.Frozen, facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	defer runtime.KeepAlive(base) // see Epoch.ServiceValue
	if err := p.validate(); err != nil {
		return nil, Metrics{}, err
	}
	if err := base.ValidateScenario(p.Scenario); err != nil {
		return nil, Metrics{}, err
	}
	l := frozenLayout{f: base}
	var m Metrics
	if k <= 0 || len(facilities) == 0 {
		return nil, m, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	mode := l.f.FilterModeFor(p.Scenario)
	ancestors := l.f.AncestorsCanServe(p.Scenario)

	h := make(stateHeap, 0, len(facilities))
	for _, f := range facilities {
		h = append(h, initialState(l, f, p, ancestors))
	}
	heap.Init(&h)

	results := make([]Result, 0, k)
	for h.Len() > 0 && len(results) < k {
		s := heap.Pop(&h).(*state)
		// hserve == 0 means no unexplored pair can add service: aserve
		// is exact. This covers both the fully-explored case (empty
		// pairs) and the paper's safe early termination.
		if s.done() {
			results = append(results, Result{Facility: s.fac, Service: s.aserve})
			continue
		}
		relaxState(l, s, p, mode, &m)
		heap.Push(&h, s)
	}
	return results, m, nil
}

// serviceValues computes SO(U, f) over ep for every facility in one
// batch, sharding the facilities across a pool of workers: Algorithm 1
// over the masked base, then the delta scan in the same step, added
// after it. The returned slice is indexed like facilities; ordering and
// merged Metrics are deterministic because each facility's traversal is
// independent. ctx (nil means "never") is polled between facilities in
// every worker; a done context aborts the batch with its error and no
// partial answer. p must be valid for ep: the caller validates once.
func serviceValues(ctx context.Context, ep *Epoch, facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	var m Metrics
	if len(facilities) == 0 {
		return nil, m, nil
	}
	l := ep.layout()
	mode, ancestors := l.f.FilterModeFor(p.Scenario), l.f.AncestorsCanServe(p.Scenario)
	out := make([]float64, len(facilities))
	workers = ResolveWorkers(workers, len(facilities))
	stops := maxStops(facilities)
	if workers == 1 {
		arena := acquireCompArena(stops)
		for i, f := range facilities {
			if err := CtxErr(ctx); err != nil {
				putCompArena(arena)
				return nil, m, err
			}
			out[i] = evaluateService(l, 0, f.Stops, p, mode, ancestors, &m, arena) + ep.deltaService(f, p, &m)
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
			for CtxErr(ctx) == nil {
				i := int(next.Add(1)) - 1
				if i >= len(facilities) {
					break
				}
				out[i] = evaluateService(l, 0, facilities[i].Stops, p, mode, ancestors, wm, arena) + ep.deltaService(facilities[i], p, wm)
			}
			putCompArena(arena)
		}(w)
	}
	wg.Wait()
	for _, wm := range perWorker {
		m.Add(wm)
	}
	if err := CtxErr(ctx); err != nil {
		return nil, m, err
	}
	return out, m, nil
}
