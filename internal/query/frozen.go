package query

import (
	"fmt"
	"runtime"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// FrozenEngine answers kMaxRRST queries over a frozen columnar TQ-tree,
// walking int32 node handles into the flat index (layout.go). A
// FrozenEngine is immutable and safe for any number of concurrent
// readers.
type FrozenEngine struct {
	f *tqtree.Frozen
}

// NewFrozenEngine wraps a frozen index. The index carries its own corpus
// (Frozen.Table), so users is not retained: a non-nil set is only checked
// to have the index's trajectory count — a mismatch is a caller bug and
// panics — and callers inside this module pass nil. The parameter stays
// for benchmark/layers.go, which a PR scoped to benchmark/ can update.
func NewFrozenEngine(f *tqtree.Frozen, users *trajectory.Set) *FrozenEngine {
	if users != nil && users.Len() != f.NumTrajectories() {
		panic(fmt.Sprintf("query: NewFrozenEngine: set of %d trajectories for an index of %d", users.Len(), f.NumTrajectories()))
	}
	return &FrozenEngine{f: f}
}

// Frozen returns the underlying flat index.
func (e *FrozenEngine) Frozen() *tqtree.Frozen { return e.f }

// Table returns the indexed trajectories.
func (e *FrozenEngine) Table() *trajectory.Table { return e.f.Table() }

// Variant returns the index's decomposition variant, which selects how
// coverage masks translate into objective values (ObjectiveFromMask).
func (e *FrozenEngine) Variant() tqtree.Variant { return e.f.Variant() }

// ValidateScenario checks that queries under sc are exact on the index.
func (e *FrozenEngine) ValidateScenario(sc service.Scenario) error { return e.f.ValidateScenario(sc) }

// ServiceValue computes SO(U, f) exactly via the divide-and-conquer
// traversal of Algorithm 1 over the flat layout.
func (e *FrozenEngine) ServiceValue(f *trajectory.Facility, p Params) (float64, Metrics, error) {
	// Mapped indexes serve column slices that alias a file mapping whose
	// lifetime is a finalizer on e.f's pin; the KeepAlive pins e.f (and
	// so the mapping) across the whole evaluation even if the compiler
	// proves e.f itself dead mid-call. Same pattern on every query entry
	// point below and on Epoch.
	defer runtime.KeepAlive(e.f)
	l := frozenLayout{f: e.f}
	if err := validateQuery(l, p); err != nil {
		return 0, Metrics{}, err
	}
	var m Metrics
	mode := e.f.FilterModeFor(p.Scenario)
	arena := acquireCompArena(len(f.Stops))
	so := evaluateService(l, 0, f.Stops, p, mode, e.f.AncestorsCanServe(p.Scenario), &m, arena)
	putCompArena(arena)
	return so, m, nil
}

// ServiceValues computes SO(U, f) for every facility in one batch,
// sharding the facilities across a pool of workers (normalized by
// ResolveWorkers). The returned slice is indexed like facilities, so the
// ordering is deterministic and identical to calling ServiceValue in a
// loop; the merged Metrics totals are as well, because each facility's
// traversal is independent.
func (e *FrozenEngine) ServiceValues(facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return serviceValues(frozenLayout{f: e.f}, facilities, p, workers, nil, nil)
}

// TopK answers the kMaxRRST query: the k facilities with the highest
// service value, in non-increasing order, computed with the best-first
// strategy of Algorithm 3 driven by the q-node `sub` upper bounds. It is
// what the paper's figures time; the public index types answer top-k as
// one exact ServiceValues pass plus Results instead.
func (e *FrozenEngine) TopK(facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return topK(frozenLayout{f: e.f}, facilities, k, p)
}

// UpperBound returns the bound TopK seeds f's search with — the `sub` of
// the smallest q-node containing f's EMBR, plus ancestor own-list bounds
// where those can serve: a sound overestimate of SO(U, f), read in one
// descent without allocating. It does not validate p. No serving path
// calls it: it is what tqbench -exp bound measures (a bound would have to
// rank fewer than N − k facilities above the k-th value before it could
// save a served top-k anything) and what Index.UpperBoundsCtx sums as a
// diagnostic.
func (e *FrozenEngine) UpperBound(f *trajectory.Facility, p Params) float64 {
	defer runtime.KeepAlive(e.f)
	return upperBound(frozenLayout{f: e.f}, f, p)
}

// Cover computes the coverage table of a facility batch: which points of
// which users each facility covers — every point of a FullTrajectory user
// within ψ, the two endpoints of each Segmented segment, and a TwoPoint
// user's source and destination only. This is what the MaxkCovRST solvers
// in internal/maxcov read.
func (e *FrozenEngine) Cover(facilities []*trajectory.Facility, p Params) (*service.CoverTable, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	l := frozenLayout{f: e.f}
	if err := validateQuery(l, p); err != nil {
		return nil, Metrics{}, err
	}
	var m Metrics
	return cover(l, facilities, p, nil, &m), m, nil
}
