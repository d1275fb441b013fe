package trajcover

// The frozen read path. Every index is a set of frozen columnar TQ-trees
// — each laid out in a handful of contiguous slices with ~zero pointer
// words for the GC — and a FrozenIndex (or FrozenShardedIndex) is that
// set with no write path: immutable, and written to and restored from
// snapshots by bulk-reading the slices instead of rebuilding the tree
// (TQSNAP04/TQSHRD03; see snapshot_frozen.go).
//
// Freeze an Index or ShardedIndex when it has stopped changing: a shard
// with no pending writes hands over its base as it is, and any other is
// folded into a fresh base first.

import (
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
)

// FrozenIndex is the immutable columnar form of an Index — a
// FrozenShardedIndex of one shard. It answers every query, coverage ones
// included, as the Index it was frozen from does, is safe for any number
// of concurrent readers, and cannot be mutated.
type FrozenIndex struct {
	querier
	s *shard.Frozen
}

func newFrozenIndex(s *shard.Frozen) *FrozenIndex {
	return &FrozenIndex{querier: querier{s}, s: s}
}

// frozenIndexOf serves one frozen tree as a one-shard scatter.
func frozenIndexOf(f *tqtree.Frozen, err error) (*FrozenIndex, error) {
	if err != nil {
		return nil, err
	}
	s, err := shard.FrozenFromEngines([]*query.FrozenEngine{query.NewFrozenEngine(f, nil)}, f.Bounds(), shard.Hash{}.Kind())
	if err != nil {
		return nil, err
	}
	return newFrozenIndex(s), nil
}

// Freeze produces the immutable form of the index's current corpus: the
// base as it is when no write is pending, else a fresh base built from
// the corpus as a rebuild would build it. The index is only read and
// remains fully usable; the frozen form shares only an immutable base
// with it.
func (x *Index) Freeze() (*FrozenIndex, error) {
	s, err := x.s.Freeze()
	if err != nil {
		return nil, err
	}
	return newFrozenIndex(s), nil
}

// NewFrozenIndex builds a frozen index directly from user trajectories:
// the columns are written straight from the build's partition, and
// nothing of users or the trajectories in it is retained. It equals
// NewIndex followed by Freeze.
func NewFrozenIndex(users []*Trajectory, opts IndexOptions) (*FrozenIndex, error) {
	return frozenIndexOf(tqtree.BuildFrozen(users, opts.treeOptions()))
}

// Len returns the number of indexed user trajectories.
func (x *FrozenIndex) Len() int { return x.s.Len() }

// FrozenShardedIndex is the immutable columnar form of a ShardedIndex:
// every shard's tree frozen, served by the same scatter-gather merge.
type FrozenShardedIndex struct {
	querier
	s *shard.Frozen
}

func newFrozenShardedIndex(s *shard.Frozen) *FrozenShardedIndex {
	return &FrozenShardedIndex{querier: querier{s}, s: s}
}

// Freeze produces the frozen serving form of the sharded index, shard by
// shard as Index.Freeze does. The source index is only read and remains
// usable.
func (x *ShardedIndex) Freeze() (*FrozenShardedIndex, error) {
	s, err := x.s.Freeze()
	if err != nil {
		return nil, err
	}
	return newFrozenShardedIndex(s), nil
}

// NumShards returns the number of shards.
func (x *FrozenShardedIndex) NumShards() int { return x.s.NumShards() }

// ShardSizes returns the number of trajectories in each shard.
func (x *FrozenShardedIndex) ShardSizes() []int { return x.s.Sizes() }

// Len returns the total number of indexed user trajectories.
func (x *FrozenShardedIndex) Len() int { return x.s.Len() }
