package trajcover

// The frozen read path. A built Index (or ShardedIndex) can be frozen
// into an immutable columnar form — the whole TQ-tree laid out in a
// handful of contiguous slices — that answers the same queries
// bit-identically while walking flat arrays instead of chasing pointers:
// measurably faster single-threaded hot loops, ~zero pointer words for
// the GC, and snapshots that restore by bulk-reading the slices instead
// of rebuilding the tree (TQSNAP04/TQSHRD03; see snapshot_frozen.go).
//
// Freeze when the index has stopped changing and is about to serve reads:
// the mutable Index remains the build/Insert/Delete path, and a serving
// process re-freezes (or freezes one rebuilt shard at a time) to pick up
// changes.

import (
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
)

// FrozenIndex is the immutable columnar form of an Index — a
// FrozenShardedIndex of one shard. It answers every query bit-identically
// to the Index it was frozen from, is safe for any number of concurrent
// readers, and cannot be mutated — Insert/Delete and the coverage-based
// queries (ServedUsers, MaxCoverage) stay on the mutable Index.
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

// Freeze produces the frozen columnar form of the index. The index is
// only read and remains fully usable; the frozen form copies the
// trajectories into its own table and shares nothing with the index, so
// dropping the index (and the trajectories it was built from) afterwards
// releases them.
func (x *Index) Freeze() (*FrozenIndex, error) {
	s, err := x.s.Freeze()
	if err != nil {
		return nil, err
	}
	return newFrozenIndex(s), nil
}

// NewFrozenIndex builds a frozen index directly from user trajectories:
// the columns are written straight from the build's partition, with no
// mutable tree in between, and nothing of users or the trajectories in it
// is retained. It equals NewIndex followed by Freeze.
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

// Freeze produces the frozen serving form of the sharded index, freezing
// each shard's tree. The source index is only read and remains usable.
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
