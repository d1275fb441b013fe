package shard

import (
	"container/heap"
	"context"
	"sync"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// This file implements the scatter-gather kMaxRRST merge: one best-first
// exploration per (facility, shard), scheduled by a single global k-heap
// keyed on the facility's summed upper bound. The search is the paper's
// branch-and-bound lifted one level up:
//
//   - A facility's upper bound is the sum of its per-shard upper bounds
//     (exact-so-far + optimistic remainder). Shards partition the users,
//     so the sum bounds the true global service value.
//   - Popping the heap picks the facility that could still win; within
//     it, only the shard with the largest optimistic remainder is
//     relaxed. Shards whose remainder has reached zero — including
//     shards the facility's EMBR barely touches, whose root `sub` bounds
//     start near zero — are never explored again: the shard-prune.
//   - A facility is emitted only when every shard's remainder is zero,
//     so its reported value is exact, and the emission order (value
//     descending, ID ascending on ties) matches the single-tree TopK.
//
// The merge is written over query.Exploration, so the same code serves
// every kind of unit (scatter.go) — pointer trees, frozen columns and
// live epochs differ only in what NewExplorer returns.

// facState is one facility's scatter state: its per-shard explorations
// and the cached bound sums the heap orders by.
type facState struct {
	fac   *trajectory.Facility
	exps  []query.Exploration
	exact float64 // Σ per-shard Exact
	opt   float64 // Σ per-shard Optimistic
	index int     // heap bookkeeping
}

func (f *facState) upper() float64 { return f.exact + f.opt }

// relax advances the shard exploration with the largest optimistic
// remainder by one round and refreshes the cached sums.
func (f *facState) relax(m *query.Metrics) {
	best := -1
	for i, x := range f.exps {
		if x.Done() {
			continue
		}
		if best < 0 || x.Optimistic() > f.exps[best].Optimistic() {
			best = i
		}
	}
	if best < 0 {
		return
	}
	f.exps[best].Relax(m)
	f.refresh()
}

func (f *facState) refresh() {
	f.exact, f.opt = 0, 0
	for _, x := range f.exps {
		f.exact += x.Exact()
		f.opt += x.Optimistic()
	}
}

func (f *facState) done() bool { return f.opt == 0 }

// facHeap is a max-heap on upper() with facility ID as the deterministic
// tie-break — the same ordering as the single-tree state heap.
type facHeap []*facState

func (h facHeap) Len() int { return len(h) }
func (h facHeap) Less(i, j int) bool {
	if h[i].upper() != h[j].upper() {
		return h[i].upper() > h[j].upper()
	}
	return h[i].fac.ID < h[j].fac.ID
}
func (h facHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *facHeap) Push(x any) {
	f := x.(*facState)
	f.index = len(*h)
	*h = append(*h, f)
}
func (h *facHeap) Pop() any {
	old := *h
	n := len(old)
	f := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return f
}

// newFacState seeds one facility's exploration on every unit. Units with
// an empty tree contribute a zero upper bound and start Done, so they
// cost nothing beyond the seed.
func newFacState[U unit](units []U, f *trajectory.Facility, p Params) (*facState, error) {
	fs := &facState{fac: f, exps: make([]query.Exploration, 0, len(units))}
	for _, u := range units {
		x, err := u.NewExplorer(f, p)
		if err != nil {
			return nil, err
		}
		fs.exps = append(fs.exps, x)
	}
	fs.refresh()
	return fs, nil
}

// seedHeap clamps k and seeds the global heap with one facState per
// facility. The returned k is 0 when there is nothing to do. The caller
// must have validated the query against every unit already.
func seedHeap[U unit](units []U, facilities []*trajectory.Facility, k int, p Params) (*facHeap, int, error) {
	if k <= 0 || len(facilities) == 0 {
		return nil, 0, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	h := make(facHeap, 0, len(facilities))
	for _, f := range facilities {
		fs, err := newFacState(units, f, p)
		if err != nil {
			return nil, 0, err
		}
		h = append(h, fs)
	}
	heap.Init(&h)
	return &h, k, nil
}

// mergeTopK drains the global heap best first, emitting a facility only
// when every shard's optimistic remainder is zero. ctx (nil means
// "never") is polled between relaxations via query.CtxErr; a done
// context aborts the merge with its error and no partial answer.
func mergeTopK(ctx context.Context, h *facHeap, k int, m *query.Metrics) ([]query.Result, error) {
	results := make([]query.Result, 0, k)
	for h.Len() > 0 && len(results) < k {
		if err := query.CtxErr(ctx); err != nil {
			return nil, err
		}
		fs := heap.Pop(h).(*facState)
		if fs.done() {
			results = append(results, query.Result{Facility: fs.fac, Service: fs.exact})
			continue
		}
		fs.relax(m)
		heap.Push(h, fs)
	}
	return results, nil
}

// mergeTopKParallel is mergeTopK with up to `workers` facility
// relaxations run concurrently per round (each relaxation touches only
// that facility's per-shard explorations, and the indexes are immutable
// under queries, so the batch shares no mutable state). Results are
// identical to mergeTopK; the speculative extra relaxations buy
// wall-clock time, exactly as in the single-tree executor.
func mergeTopKParallel(ctx context.Context, h *facHeap, k, workers int, m *query.Metrics) ([]query.Result, error) {
	results := make([]query.Result, 0, k)
	batch := make([]*facState, 0, workers)
	perWorker := make([]query.Metrics, workers)
	for h.Len() > 0 && len(results) < k {
		if err := query.CtxErr(ctx); err != nil {
			for _, wm := range perWorker {
				m.Add(wm)
			}
			return nil, err
		}
		fs := heap.Pop(h).(*facState)
		if fs.done() {
			results = append(results, query.Result{Facility: fs.fac, Service: fs.exact})
			continue
		}
		// Grab more non-final states to relax alongside the top one; a
		// final state stops the grab — it must be re-examined at the top
		// of the heap after the batch reorders, not emitted early.
		batch = append(batch[:0], fs)
		for len(batch) < workers && h.Len() > 0 {
			if (*h)[0].done() {
				break
			}
			batch = append(batch, heap.Pop(h).(*facState))
		}
		if len(batch) == 1 {
			fs.relax(m)
		} else {
			var wg sync.WaitGroup
			for i, bs := range batch {
				wg.Add(1)
				go func(i int, bs *facState) {
					defer wg.Done()
					bs.relax(&perWorker[i])
				}(i, bs)
			}
			wg.Wait()
		}
		for _, bs := range batch {
			heap.Push(h, bs)
		}
	}
	for _, wm := range perWorker {
		m.Add(wm)
	}
	return results, nil
}
