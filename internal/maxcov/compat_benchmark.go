package maxcov

// The solver name the repository benchmark (benchmark/layers.go, its own
// module and its only caller) still compiles against. It forwards to
// TwoStep and holds no logic; nothing else may use it. ROADMAP item 1
// moves the benchmark to the served index's MaxCoverage and deletes this
// file.

import (
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TwoStepGreedy is TwoStep over a one-shard index of eng.
func TwoStepGreedy(eng *query.Engine, facilities []*trajectory.Facility, k, kPrime int, p query.Params) (Result, error) {
	f, err := shard.FrozenOf([]*tqtree.Frozen{eng.Frozen()}, "")
	if err != nil {
		return Result{}, err
	}
	return TwoStep(f.Source(), facilities, k, kPrime, p)
}
