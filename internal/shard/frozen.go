package shard

import (
	"fmt"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Frozen is a set of frozen columnar TQ-trees jointly indexing one
// trajectory corpus — the immutable serving form of Live. Each shard
// serves as a generation-0 query.Epoch with nothing pending, the same
// unit Live serves, through the embedded Scatter; each base serializes
// verbatim into the TQSHRD03 snapshot container.
type Frozen struct {
	Scatter
	kind   string
	epochs []*query.Epoch
}

// BuildFrozen partitions users and writes each shard's columns straight
// from its build plan. A duplicate ID inside a shard fails that shard's
// build; one shared by two shards fails the merge in FrozenOf.
func BuildFrozen(users []*trajectory.Trajectory, opts Options) (*Frozen, error) {
	opts = opts.withDefaults()
	parts, bounds := partition(users, opts)
	bases := make([]*tqtree.Frozen, len(parts))
	err := buildTrees(parts, bounds, opts, func(i int, treeOpts tqtree.Options) error {
		fz, err := tqtree.BuildFrozen(parts[i], treeOpts)
		bases[i] = fz
		return err
	})
	if err != nil {
		return nil, err
	}
	return FrozenOf(bases, opts.Partitioner.Kind())
}

// newFrozen serves bases, whose IDs are unique across them, as gen-0
// epochs. Live shares the same epochs: they are immutable.
func newFrozen(bases []*tqtree.Frozen, kind string) (*Frozen, error) {
	epochs := make([]*query.Epoch, len(bases))
	for i, b := range bases {
		ep, err := query.NewEpoch(b, nil, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		epochs[i] = ep
	}
	f := &Frozen{kind: kind, epochs: epochs}
	f.capture = func() []*query.Epoch { return epochs }
	return f, nil
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

// FrozenOf assembles a Frozen from per-shard frozen bases — the build and
// snapshot restore paths. kind records the partitioner the partition was
// produced with ("" when unknown). IDs must be unique across the whole
// corpus, exactly as a build checks; each table is unique in itself, so
// one merge of their sorted ID columns decides it.
func FrozenOf(bases []*tqtree.Frozen, kind string) (*Frozen, error) {
	if len(bases) == 0 {
		return nil, fmt.Errorf("shard: no frozen shards")
	}
	if len(bases) > 1 {
		cols := make([][]trajectory.ID, len(bases))
		for i, b := range bases {
			cols[i] = b.Table().AppendSortedIDs(make([]trajectory.ID, 0, b.Table().Len()), nil)
		}
		if err := uniqueAcross(cols, "frozen"); err != nil {
			return nil, err
		}
	}
	return newFrozen(bases, kind)
}

// NumShards returns the shard count.
func (f *Frozen) NumShards() int { return len(f.epochs) }

// Len returns the total number of indexed trajectories.
func (f *Frozen) Len() int {
	n := 0
	for _, ep := range f.epochs {
		n += ep.Len()
	}
	return n
}

// Sizes returns the number of trajectories in each shard.
func (f *Frozen) Sizes() []int {
	out := make([]int, len(f.epochs))
	for i, ep := range f.epochs {
		out[i] = ep.Len()
	}
	return out
}

// PartitionerKind returns the kind of the partitioner the shards were
// produced with, or "" when unknown.
func (f *Frozen) PartitionerKind() string { return f.kind }

// Base returns the frozen index of shard i.
func (f *Frozen) Base(i int) *tqtree.Frozen { return f.epochs[i].Base() }
