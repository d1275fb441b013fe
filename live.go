package trajcover

// The mutable index. An Index serves every query from an immutable,
// atomically-swappable epoch per shard — a frozen columnar base index plus
// a small delta overlay and tombstone set — while Insert/Delete land in
// the overlay and a background rebuild periodically folds the overlay
// into a fresh frozen base and swaps it in, one shard at a time. Insert
// and Delete are safe concurrently with every query method, queries
// synchronize with writers only for the epoch-set capture (never during
// execution, never with a rebuild), and read performance does not decay
// with churn (the overlay is bounded by the compaction policy).
//
// A FrozenIndex (frozen.go) is the same shards with no write path.

import (
	"context"
	"errors"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
)

// ErrImmutable marks an index that cannot accept the attempted write:
// it was restored from a snapshot recorded with a partitioner this
// build does not know, so inserts cannot be routed consistently with
// the recorded partition. Test with errors.Is.
var ErrImmutable = shard.ErrImmutable

// IsImmutable reports whether err means the index rejects writes
// because no usable partitioner survived restore.
func IsImmutable(err error) bool { return errors.Is(err, ErrImmutable) }

// ErrDuplicateID rejects an Insert whose ID is already in the logical
// corpus. Typed so callers can tell a client mistake from a durability
// failure. Test with errors.Is.
var ErrDuplicateID = shard.ErrDuplicateID

// LivePolicy tunes when an Index folds a shard's pending churn (delta
// overlay + tombstones) into a fresh frozen base. The zero value
// rebuilds a shard in the background once 4096 writes are pending or
// the pending churn reaches 25% of the shard's base corpus.
type LivePolicy struct {
	// MaxDelta triggers a background rebuild at this many pending
	// writes per shard (0 means 4096).
	MaxDelta int
	// MaxDeltaFraction triggers when pending churn reaches this
	// fraction of the shard's base corpus (0 means 0.25; negative
	// disables the fraction trigger).
	MaxDeltaFraction float64
	// RebuildParallelism bounds the goroutines a background rebuild may
	// use (0 means 1, leaving the cores to the serving path).
	RebuildParallelism int
	// Manual disables automatic rebuilds; only Compact folds churn.
	Manual bool
}

func (p LivePolicy) policy() shard.Policy {
	return shard.Policy{
		MaxDelta:           p.MaxDelta,
		MaxDeltaFraction:   p.MaxDeltaFraction,
		RebuildParallelism: p.RebuildParallelism,
		Manual:             p.Manual,
	}
}

// LiveShardStats is one shard's live-serving state.
type LiveShardStats = shard.ShardStats

// Index is a TQ-tree index over a set of user trajectories, answering
// both kMaxRRST and MaxkCovRST queries, that accepts writes while it
// serves. It holds one shard or several: a query fans out to every
// shard's epoch, exact per-shard values are summed, and top-k is the
// sort-and-cut of those sums. Several shards build in parallel and
// rebuild independently — use them when one tree is too large to build,
// rebuild, or hold comfortably. Answers match a one-shard index exactly
// for integral scenarios (Binary; every scenario over integral service
// values) and up to floating-point summation order otherwise.
type Index struct {
	querier
	s *shard.Live

	// wal holds the durability state when the index was opened with
	// OpenIndex; nil for purely in-memory indexes. See live_wal.go.
	wal *liveWAL
}

func newIndex(s *shard.Live) *Index {
	return &Index{querier: querier{s.Scatter}, s: s}
}

// NewIndex partitions users with opts.Partitioner into opts.Shards
// shards and builds one frozen-epoch TQ-tree per shard, in parallel
// within opts.Parallelism. The index copies the users' points into its
// own tables and keeps nothing of the users slice.
func NewIndex(users []*Trajectory, opts IndexOptions) (*Index, error) {
	s, err := shard.BuildLive(users, opts.shardOptions(), opts.Policy.policy())
	if err != nil {
		return nil, err
	}
	return newIndex(s), nil
}

// NumShards returns the number of shards.
func (x *Index) NumShards() int { return x.s.NumShards() }

// ShardSizes returns each shard's logical corpus size.
func (x *Index) ShardSizes() []int { return x.s.Sizes() }

// Len returns the logical corpus size (base minus deletes plus the
// delta overlay, over every shard).
func (x *Index) Len() int { return x.s.Len() }

// Insert routes a user trajectory to its shard's delta overlay. Safe
// concurrently with every query method and with other writes. A
// duplicate ID is rejected with ErrDuplicateID; an index restored with
// an unknown partitioner returns ErrImmutable.
func (x *Index) Insert(u *Trajectory) error { return x.s.Insert(u) }

// Delete removes the trajectory with the given id from whichever shard
// holds it, reporting whether it was present. Safe concurrently with
// every query method — and works even when Insert is ErrImmutable,
// because deletion routes by ID lookup, not by partitioner. The error
// is always nil without a WAL; with one attached it reports a
// durability failure (the delete was not acknowledged).
func (x *Index) Delete(id ID) (bool, error) { return x.s.Delete(id) }

// Compact synchronously folds every shard's pending writes into fresh
// frozen bases, one shard at a time. Queries and writes proceed during
// the fold; only each final pointer swap synchronizes with writers.
func (x *Index) Compact() error { return x.s.Compact() }

// Stats returns per-shard serving state (pending churn, epoch
// generation, completed compactions).
func (x *Index) Stats() []LiveShardStats { return x.s.Stats() }

// Version returns a monotone counter that increases after every
// acknowledged write and every background rebuild swap. Two equal
// reads bracketing a query prove the answer reflects the current
// corpus — the key for epoch-keyed result caching.
func (x *Index) Version() uint64 { return x.s.Version() }

// Err returns the most recent background-rebuild error, or nil.
func (x *Index) Err() error { return x.s.Err() }

// UpperBoundsCtx returns every facility's seed upper bound summed over
// one write-consistent epoch capture, indexed like facilities — each a
// sound overestimate of the facility's exact service value, read in one
// tree descent per shard with nothing evaluated. It is a diagnostic: no
// query consults it (kept because the repository benchmark times it as
// query.upperbounds_ms; ROADMAP item 1b drops both).
func (x *Index) UpperBoundsCtx(ctx context.Context, facilities []*Facility, q Query) ([]float64, error) {
	p := q.params()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	epochs := x.s.Epochs()
	for _, ep := range epochs {
		if err := ep.ValidateScenario(p.Scenario); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(facilities))
	for i, f := range facilities {
		if err := query.CtxErr(ctx); err != nil {
			return nil, err
		}
		for _, ep := range epochs {
			out[i] += ep.UpperBound(f, p)
		}
	}
	return out, nil
}
