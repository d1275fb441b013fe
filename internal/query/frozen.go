package query

import (
	"fmt"
	"runtime"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// FrozenEngine answers kMaxRRST queries over a frozen columnar TQ-tree.
// It runs exactly the same search implementation as Engine (see
// layout.go) instantiated over int32 node handles into the flat index, so
// its answers — values, result order, and work metrics — are
// bit-identical to the pointer engine's over the tree the index was
// frozen from. A FrozenEngine is immutable and safe for any number of
// concurrent readers.
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
	if err := validateQuery[int32](l, p); err != nil {
		return 0, Metrics{}, err
	}
	var m Metrics
	mode := e.f.FilterModeFor(p.Scenario)
	arena := acquireCompArena(len(f.Stops))
	so := evaluateServiceG(l, int32(0), f.Stops, p, mode, l.AncestorsCanServe(p.Scenario), &m, arena)
	putCompArena(arena)
	return so, m, nil
}

// ServiceValues computes SO(U, f) for every facility in one batch,
// sharding the facilities across a pool of workers; see
// Engine.ServiceValues.
func (e *FrozenEngine) ServiceValues(facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return serviceValuesG[int32](frozenLayout{f: e.f}, facilities, p, workers, nil, nil)
}

// TopK answers the kMaxRRST query best first; see Engine.TopK.
func (e *FrozenEngine) TopK(facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return topKG[int32](frozenLayout{f: e.f}, facilities, k, p)
}

// UpperBound is the seed bound of f's best-first search; see
// Engine.UpperBound.
func (e *FrozenEngine) UpperBound(f *trajectory.Facility, p Params) float64 {
	defer runtime.KeepAlive(e.f)
	return upperBoundG[int32](frozenLayout{f: e.f}, f, p)
}
