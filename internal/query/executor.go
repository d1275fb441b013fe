package query

import (
	"runtime"

	"github.com/trajcover/trajcover/internal/trajectory"
)

// This file exposes the concurrent batch executor over the pointer tree.
// A built TQ-tree is immutable under queries — every traversal in this
// package only reads nodes, lists, and cached bounds — so one tree is
// safely shared by any number of worker goroutines without locking.
// (Tree.Insert is NOT safe to run concurrently with queries; batch
// serving of a mutating tree needs external coordination or
// snapshotting.)
//
// Each worker owns its hot-path scratch (compArena, pooled StopSets) and
// a private Metrics that is summed into the caller's after the join, so
// the hot loops share no mutable state and the merged totals match the
// serial run wherever the work split is deterministic. The actual batch
// loops live in layout.go, shared with the frozen columnar engine.

// ResolveWorkers maps a caller's `workers` argument to an effective pool
// size. It is THE normalization for every batch and parallel entry point
// in this module — Engine, FrozenEngine, Epoch, and the sharded/live
// scatter-gather in internal/shard all apply the same rule:
//
//   - workers <= 0 means runtime.GOMAXPROCS(0);
//   - the pool never exceeds `items` (a batch can't use more workers
//     than units of work, a relaxation round can't usefully batch more
//     states than facilities);
//   - the result is never below 1, even for an empty batch.
//
// Parallel TopK entry points additionally fall back to their serial
// search when the resolved pool is 1 — same answers, no goroutines.
func ResolveWorkers(workers, items int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > items {
		workers = items
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Add accumulates other into m — used wherever per-worker or per-shard
// metrics are merged into a caller's total.
func (m *Metrics) Add(other Metrics) {
	m.NodesVisited += other.NodesVisited
	m.EntriesScored += other.EntriesScored
	m.Relaxations += other.Relaxations
}

// ServiceValues computes SO(U, f) for every facility in one batch,
// sharding the facilities across a pool of workers. The returned slice
// is indexed like facilities, so the ordering is deterministic and
// identical to calling ServiceValue in a loop; the merged Metrics totals
// are as well, because each facility's traversal is independent.
// workers is normalized by ResolveWorkers.
func (e *Engine) ServiceValues(facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	return serviceValuesG[*tqtreeNode](ptrLayout{e.tree}, facilities, p, workers, nil, nil)
}

// TopKExhaustiveParallel is TopKExhaustive with the per-facility scoring
// sharded across workers. The answer (and the merged Metrics) is
// identical to the serial TopKExhaustive: scores are written by facility
// index and sorted with the same deterministic tie-break.
func (e *Engine) TopKExhaustiveParallel(facilities []*trajectory.Facility, k int, p Params, workers int) ([]Result, Metrics, error) {
	if k <= 0 || len(facilities) == 0 {
		if err := validateQuery[*tqtreeNode](ptrLayout{e.tree}, p); err != nil {
			return nil, Metrics{}, err
		}
		return nil, Metrics{}, nil
	}
	values, m, err := e.ServiceValues(facilities, p, workers)
	if err != nil {
		return nil, m, err
	}
	return Results(facilities, values, k), m, nil
}

// TopKParallel answers kMaxRRST with the best-first strategy of TopK,
// relaxing up to `workers` frontier states concurrently per round. A
// facility is emitted only when it reaches the top of the heap with no
// optimistic remainder — the same exactness condition as the serial
// search — so the results are identical to TopK. Metrics.Relaxations may
// exceed the serial count: batching can relax states the serial search
// would have pruned by an earlier termination, buying wall-clock time
// with speculative work. workers is normalized by ResolveWorkers; a
// single-worker pool falls back to the serial TopK.
func (e *Engine) TopKParallel(facilities []*trajectory.Facility, k int, p Params, workers int) ([]Result, Metrics, error) {
	workers = ResolveWorkers(workers, len(facilities))
	if workers <= 1 {
		return e.TopK(facilities, k, p)
	}
	return topKParallelG[*tqtreeNode](ptrLayout{e.tree}, facilities, k, p, workers, nil)
}

// Results converts a batch of service values into sorted top-k results —
// a convenience for callers that already hold ServiceValues output.
func Results(facilities []*trajectory.Facility, values []float64, k int) []Result {
	if len(values) != len(facilities) {
		panic("query: values/facilities length mismatch")
	}
	results := make([]Result, len(facilities))
	for i, f := range facilities {
		results[i] = Result{Facility: f, Service: values[i]}
	}
	sortResults(results)
	if k > 0 && k < len(results) {
		results = results[:k]
	}
	return results
}
