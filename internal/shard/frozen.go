package shard

import (
	"fmt"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Frozen is a set of frozen columnar TQ-trees jointly indexing one
// trajectory corpus — the read-optimized serving form of Sharded. It
// answers the same scatter-gather queries through the embedded scatter
// over one frozen engine per shard, is immutable (no Insert), and each
// shard serializes verbatim into the TQSHRD03 snapshot container.
type Frozen struct {
	scatter[*query.FrozenEngine]
	bounds  geo.Rect
	kind    string
	engines []*query.FrozenEngine
}

// Freeze produces the frozen serving form of the sharded index: every
// shard's pointer tree is frozen into its columnar layout, trajectories
// copied. The source index is only read and remains fully usable;
// dropping it afterwards releases all pointer-tree storage.
func (s *Sharded) Freeze() (*Frozen, error) {
	engines := make([]*query.FrozenEngine, len(s.engines))
	for i, e := range s.engines {
		fz, err := tqtree.Freeze(e.Tree())
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		engines[i] = query.NewFrozenEngine(fz, nil)
	}
	return newFrozen(engines, s.bounds, s.PartitionerKind()), nil
}

// buildFrozen is Build followed by Freeze without the mutable index in
// between: each shard's columns are written straight from its build plan,
// so neither a pointer tree nor a per-shard Set (and its ID map) is ever
// made. A duplicate ID inside a shard fails that shard's build; one shared
// by two shards fails the merge in FrozenFromEngines. opts must carry its
// defaults.
func buildFrozen(users []*trajectory.Trajectory, opts Options) (*Frozen, error) {
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

func newFrozen(engines []*query.FrozenEngine, bounds geo.Rect, kind string) *Frozen {
	return &Frozen{scatter: fixedUnits(engines), bounds: bounds, kind: kind, engines: engines}
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
// was produced with ("" when unknown); bounds is the shared root space.
// IDs must be unique across the whole corpus, exactly as the mutable
// build checks; each table is unique in itself, so one merge of their
// sorted ID columns decides it.
func FrozenFromEngines(engines []*query.FrozenEngine, bounds geo.Rect, kind string) (*Frozen, error) {
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
	return newFrozen(engines, bounds, kind), nil
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

// Bounds returns the shared root space of every shard's index.
func (f *Frozen) Bounds() geo.Rect { return f.bounds }

// PartitionerKind returns the kind of the partitioner the shards were
// produced with, or "" when unknown.
func (f *Frozen) PartitionerKind() string { return f.kind }

// Engine returns the frozen query engine of shard i.
func (f *Frozen) Engine(i int) *query.FrozenEngine { return f.engines[i] }
