package query

import (
	"runtime"

	"github.com/trajcover/trajcover/internal/trajectory"
)

// This file holds the batch executor's worker rule and Results, the
// sort-and-cut that turns a batch into a top-k answer. A frozen index is
// immutable, so one base is safely shared by any number of worker
// goroutines without locking. Each worker owns its hot-path scratch
// (compArena, pooled StopSets) and a private Metrics that is summed into
// the caller's after the join, so the hot loops share no mutable state and
// the merged totals match the serial run. The batch loop itself is
// addServiceValues in layout.go, Epoch.AddServiceValuesCtx's body.

// ResolveWorkers maps a caller's `workers` argument to an effective pool
// size. It is THE normalization for every batch entry point in this
// module — Epoch, and through the epochs the scatter-gather in
// internal/shard — and applies one rule:
//
//   - workers <= 0 means runtime.GOMAXPROCS(0);
//   - the pool never exceeds `items` (a batch can't use more workers
//     than units of work);
//   - the result is never below 1, even for an empty batch.
//
// A pool of 1 runs the batch on the calling goroutine.
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

// Results converts a batch of service values into sorted top-k results:
// value descending, facility ID ascending. With ServiceValues it is the
// whole served top-k of every public index type (internal/shard) and of
// the distributed frontend (internal/dist).
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
