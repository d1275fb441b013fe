package trajcover

// The immutable index. Every index is a set of frozen columnar TQ-trees —
// each laid out in a handful of contiguous slices with ~zero pointer
// words for the GC — and a FrozenIndex is that set with no write path:
// immutable, and written to and restored from snapshots by bulk-reading
// the slices instead of rebuilding the tree (TQSNAP04 for one shard,
// TQSHRD03 for several; see snapshot_frozen.go).
//
// Freeze an Index when it has stopped changing: a shard with no pending
// writes hands over its base as it is, and any other is folded into a
// fresh base first. Live turns a FrozenIndex back into an Index.

import (
	"github.com/trajcover/trajcover/internal/shard"
)

// FrozenIndex is the immutable columnar form of an Index, of one shard
// or several. It answers every query, coverage ones included, as the
// Index it was frozen from does, is safe for any number of concurrent
// readers, and cannot be mutated.
type FrozenIndex struct {
	querier
	s *shard.Frozen
}

func newFrozenIndex(s *shard.Frozen) *FrozenIndex {
	return &FrozenIndex{querier: querier{s.Scatter}, s: s}
}

// NewFrozenIndex builds a frozen index directly from user trajectories:
// each shard's columns are written straight from the build's partition,
// and nothing of users or the trajectories in it is retained. It equals
// NewIndex followed by Freeze. opts.Policy is not read.
func NewFrozenIndex(users []*Trajectory, opts IndexOptions) (*FrozenIndex, error) {
	s, err := shard.BuildFrozen(users, opts.shardOptions())
	if err != nil {
		return nil, err
	}
	return newFrozenIndex(s), nil
}

// Freeze produces the immutable form of the index's current corpus over
// one epoch capture: per shard, the base as it is when no write is
// pending, else a fresh base built from the corpus as a rebuild would
// build it. The index is only read and remains fully usable; the frozen
// form shares only immutable bases with it.
func (x *Index) Freeze() (*FrozenIndex, error) {
	s, err := x.s.Freeze()
	if err != nil {
		return nil, err
	}
	return newFrozenIndex(s), nil
}

// Live converts a frozen index into an Index under pol — the restore path
// that makes a read-only snapshot mutable again. The Index starts from
// x's own shards, which are immutable, so no write to it shows in x. An
// index restored with a partitioner kind this build does not know
// converts too: it serves queries and Deletes, and Insert returns
// ErrImmutable because new writes cannot be routed.
func (x *FrozenIndex) Live(pol LivePolicy) (*Index, error) {
	return newIndex(x.s.Live(pol.policy())), nil
}

// NumShards returns the number of shards.
func (x *FrozenIndex) NumShards() int { return x.s.NumShards() }

// ShardSizes returns the number of trajectories in each shard.
func (x *FrozenIndex) ShardSizes() []int { return x.s.Sizes() }

// Len returns the total number of indexed user trajectories.
func (x *FrozenIndex) Len() int { return x.s.Len() }
