package shard

import (
	"fmt"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Frozen is a set of frozen columnar TQ-trees jointly indexing one
// trajectory corpus — the immutable serving form of Live. It answers the
// same scatter-gather queries through the embedded scatter over one
// frozen engine per shard, and each shard serializes verbatim into the
// TQSHRD03 snapshot container.
type Frozen struct {
	scatter[*query.FrozenEngine]
	kind    string
	engines []*query.FrozenEngine
}

// BuildFrozen partitions users and writes each shard's columns straight
// from its build plan. A duplicate ID inside a shard fails that shard's
// build; one shared by two shards fails the merge in FrozenFromEngines.
func BuildFrozen(users []*trajectory.Trajectory, opts Options) (*Frozen, error) {
	opts = opts.withDefaults()
	parts, bounds := partition(users, opts)
	engines := make([]*query.FrozenEngine, len(parts))
	err := buildTrees(parts, bounds, opts, func(i int, treeOpts tqtree.Options) error {
		fz, err := tqtree.BuildFrozen(parts[i], treeOpts)
		if err != nil {
			return err
		}
		engines[i] = query.NewFrozenEngine(fz, nil)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return FrozenFromEngines(engines, bounds, opts.Partitioner.Kind())
}

func newFrozen(engines []*query.FrozenEngine, kind string) *Frozen {
	return &Frozen{scatter: fixedUnits(engines), kind: kind, engines: engines}
}

// uniqueAcross rejects an ID that two of the given sorted, duplicate-free
// per-shard ID columns share: every query sums over shards, so it would
// be counted twice.
func uniqueAcross(cols [][]trajectory.ID, what string) error {
	if id, i, dup := trajectory.FirstDuplicateAcross(cols); dup {
		return fmt.Errorf("shard: duplicate id %d across %s shards (shard %d)", id, what, i)
	}
	return nil
}

// FrozenFromEngines assembles a Frozen from per-shard frozen engines —
// the snapshot restore path. kind records the partitioner the partition
// was produced with ("" when unknown). The geo.Rect argument is unused,
// since each engine carries the shared root space; it goes with the last
// compat_benchmark.go caller. IDs must be unique across the whole corpus,
// exactly as a build checks; each table is unique in itself, so one merge
// of their sorted ID columns decides it.
func FrozenFromEngines(engines []*query.FrozenEngine, _ geo.Rect, kind string) (*Frozen, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("shard: no frozen shards")
	}
	if len(engines) > 1 {
		cols := make([][]trajectory.ID, len(engines))
		for i, e := range engines {
			cols[i] = e.Table().AppendSortedIDs(make([]trajectory.ID, 0, e.Table().Len()), nil)
		}
		if err := uniqueAcross(cols, "frozen"); err != nil {
			return nil, err
		}
	}
	return newFrozen(engines, kind), nil
}

// NumShards returns the shard count.
func (f *Frozen) NumShards() int { return len(f.engines) }

// Len returns the total number of indexed trajectories.
func (f *Frozen) Len() int {
	n := 0
	for _, e := range f.engines {
		n += e.Table().Len()
	}
	return n
}

// Sizes returns the number of trajectories in each shard.
func (f *Frozen) Sizes() []int {
	out := make([]int, len(f.engines))
	for i, e := range f.engines {
		out[i] = e.Table().Len()
	}
	return out
}

// PartitionerKind returns the kind of the partitioner the shards were
// produced with, or "" when unknown.
func (f *Frozen) PartitionerKind() string { return f.kind }

// Engine returns the frozen query engine of shard i.
func (f *Frozen) Engine(i int) *query.FrozenEngine { return f.engines[i] }
