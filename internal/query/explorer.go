package query

import (
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Exploration is the incremental best-first exploration of one facility
// over one index — the unit of work the shard scatter-gather merge
// schedules. Both layouts implement it: *Explorer over the pointer tree
// and *FrozenExplorer over the frozen columnar index.
//
// Invariants, maintained by every Relax:
//
//   - Exact() is the service value accumulated from fully evaluated
//     q-node lists; it only grows.
//   - Optimistic() is an upper bound on the service still obtainable from
//     the unexplored frontier; it is non-increasing across relaxations
//     (upper-bound monotonicity of the paper's `sub` bounds).
//   - UpperBound() = Exact() + Optimistic() bounds the facility's true
//     service value from above; when Done(), Exact() is the exact value.
//
// An Exploration is not safe for concurrent use; distinct Explorations
// over the same (immutable) index are.
type Exploration interface {
	Facility() *trajectory.Facility
	Exact() float64
	Optimistic() float64
	UpperBound() float64
	Done() bool
	Relax(*Metrics)
	Run(*Metrics) float64
}

// Explorer drives one facility's best-first exploration over the pointer
// tree incrementally — the unit of work TopK's heap schedules, exposed so
// higher layers (the shard scatter-gather merge in internal/shard) can
// interleave explorations of the same facility over several trees and
// stop any of them early once its optimistic remainder cannot change the
// answer.
type Explorer struct {
	explorerCore[*tqtreeNode, ptrLayout]
}

var _ Exploration = (*Explorer)(nil)

// NewExplorer seeds a facility's exploration at the smallest q-node
// containing its EMBR, exactly as TopK's initialization does.
func (e *Engine) NewExplorer(f *trajectory.Facility, p Params) (Exploration, error) {
	core, err := newExplorerCore[*tqtreeNode](ptrLayout{e.tree}, f, p)
	if err != nil {
		return nil, err
	}
	return &Explorer{core}, nil
}
