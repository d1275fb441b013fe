package query

// The engine names the repository benchmark (benchmark/layers.go, its own
// module and their only caller) still compiles against. They forward to
// an Epoch with nothing pending and to BestFirstTopK and hold no logic of
// their own; nothing else may use them. ROADMAP item 1(c) moves the
// benchmark onto those two and deletes this file.

import (
	"context"
	"fmt"

	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Engine is one frozen base as the benchmark queries it.
type Engine struct {
	f *tqtree.Frozen
}

// NewFrozenEngine wraps f. users is not retained: a non-nil set must have
// the index's trajectory count, and a mismatch panics.
func NewFrozenEngine(f *tqtree.Frozen, users *trajectory.Set) *Engine {
	if users != nil && users.Len() != f.NumTrajectories() {
		panic(fmt.Sprintf("query: NewFrozenEngine: set of %d trajectories for an index of %d", users.Len(), f.NumTrajectories()))
	}
	return &Engine{f: f}
}

// NewEngine is NewFrozenEngine.
func NewEngine(f *tqtree.Tree, users *trajectory.Set) *Engine { return NewFrozenEngine(f, users) }

// Frozen returns the base.
func (e *Engine) Frozen() *tqtree.Frozen { return e.f }

// ServiceValues is the batch of an epoch over the base with nothing
// pending.
func (e *Engine) ServiceValues(facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	ep, err := NewEpoch(e.f, nil, nil, 0)
	if err != nil {
		return nil, Metrics{}, err
	}
	return ep.ServiceValuesCtx(context.Background(), facilities, p, workers)
}

// TopK is BestFirstTopK over the base.
func (e *Engine) TopK(facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	return BestFirstTopK(e.f, facilities, k, p)
}
