package trajcover

// The live serving path. A LiveIndex (or LiveShardedIndex) serves every
// query from an immutable, atomically-swappable epoch — a frozen
// columnar base index plus a small delta overlay and tombstone set —
// while Insert/Delete land in the overlay and a background rebuild
// periodically folds the overlay into a fresh frozen base and swaps it
// in per shard. The result is the guarantee the mutable Index cannot
// give: Insert and Delete are safe concurrently with every query
// method, queries synchronize with writers only for the epoch-set
// capture (never during execution, never with a rebuild), and read
// performance does not decay with churn (the overlay is bounded by the
// compaction policy; the base never degrades the way repeated
// Tree.Insert does).
//
// Use the mutable Index for build-then-query workloads and coverage
// solvers (MaxCoverage), the FrozenIndex for static read-only serving,
// and the live types whenever writes and reads overlap.

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

// LivePolicy tunes when a live index folds a shard's pending churn
// (delta overlay + tombstones) into a fresh frozen base. The zero value
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

// LiveIndex is a single-shard live index: queries always run against an
// immutable epoch while Insert/Delete are accepted concurrently and a
// background rebuild keeps the epoch compact. Answers equal a
// from-scratch Index over the same logical corpus (exactly for integral
// scenarios such as Binary; up to float summation order otherwise).
type LiveIndex struct {
	querier
	s *shard.Live
}

func newLiveIndex(s *shard.Live) *LiveIndex {
	return &LiveIndex{querier: querier{s}, s: s}
}

// LiveIndexOptions configures NewLiveIndex.
type LiveIndexOptions struct {
	// Index configures the base tree (and every rebuild).
	Index IndexOptions
	// Policy tunes background compaction.
	Policy LivePolicy
}

// NewLiveIndex builds a live single-shard index over the given users.
func NewLiveIndex(users []*Trajectory, opts LiveIndexOptions) (*LiveIndex, error) {
	sopts := ShardOptions{Shards: 1, Partitioner: HashPartitioner(), Index: opts.Index}
	s, err := shard.BuildLive(users, sopts.shardOptions(), opts.Policy.policy())
	if err != nil {
		return nil, err
	}
	return newLiveIndex(s), nil
}

// Live converts a built Index into its live serving form: the tree is
// frozen into the first epoch's base and the index accepts concurrent
// writes from then on. The source index is only read and remains usable.
func (x *Index) Live(pol LivePolicy) (*LiveIndex, error) {
	f, err := x.Freeze()
	if err != nil {
		return nil, err
	}
	return f.Live(pol)
}

// Live converts a frozen index into its live serving form — the restore
// path that makes a read-only snapshot mutable again: the frozen
// columns become the first epoch's base with an empty overlay.
func (x *FrozenIndex) Live(pol LivePolicy) (*LiveIndex, error) {
	s, err := x.s.Live(pol.policy())
	if err != nil {
		return nil, err
	}
	return newLiveIndex(s), nil
}

// Len returns the logical corpus size (base minus deletes plus the
// delta overlay).
func (x *LiveIndex) Len() int { return x.s.Len() }

// Insert adds a user trajectory. Safe concurrently with every query
// method and with other writes; duplicate IDs are rejected.
func (x *LiveIndex) Insert(u *Trajectory) error { return x.s.Insert(u) }

// Delete removes the trajectory with the given id, reporting whether it
// was present. Safe concurrently with every query method. The error is
// always nil without a WAL; with one attached it reports a durability
// failure (the delete was not acknowledged).
func (x *LiveIndex) Delete(id ID) (bool, error) { return x.s.Delete(id) }

// Compact synchronously folds all pending writes into a fresh frozen
// base. Queries and writes proceed during the fold; only the final
// pointer swap synchronizes with writers.
func (x *LiveIndex) Compact() error { return x.s.Compact() }

// Stats returns the serving state (pending churn, epoch generation,
// completed compactions).
func (x *LiveIndex) Stats() LiveShardStats { return x.s.Stats()[0] }

// Err returns the most recent background-rebuild error, or nil.
func (x *LiveIndex) Err() error { return x.s.Err() }

// Version returns the monotone write-version counter; see
// LiveShardedIndex.Version.
func (x *LiveIndex) Version() uint64 { return x.s.Version() }

// LiveShardedIndex is the live serving form of a ShardedIndex: every
// shard serves from an atomically-swappable epoch, writes route to
// their shard's delta overlay, and background rebuilds fold one shard
// at a time while the others keep serving. Queries use the same
// scatter-gather merge as ShardedIndex/FrozenShardedIndex over a
// consistent per-shard epoch capture.
type LiveShardedIndex struct {
	querier
	s *shard.Live

	// wal holds the durability state when the index was opened with
	// OpenLiveShardedIndex; nil for purely in-memory indexes. See
	// live_wal.go.
	wal *liveWAL
}

// LiveShardOptions configures NewLiveShardedIndex.
type LiveShardOptions struct {
	// Shards is the number of epoch-serving shards (0 means 1).
	Shards int
	// Partitioner assigns trajectories to shards (nil means
	// HashPartitioner()).
	Partitioner Partitioner
	// Index configures every shard's base tree (and every rebuild).
	Index IndexOptions
	// Policy tunes background compaction.
	Policy LivePolicy
}

func newLiveShardedIndex(s *shard.Live) *LiveShardedIndex {
	return &LiveShardedIndex{querier: querier{s}, s: s}
}

// NewLiveShardedIndex partitions users and builds one frozen-epoch
// shard per partition.
func NewLiveShardedIndex(users []*Trajectory, opts LiveShardOptions) (*LiveShardedIndex, error) {
	sopts := ShardOptions{Shards: opts.Shards, Partitioner: opts.Partitioner, Index: opts.Index}
	s, err := shard.BuildLive(users, sopts.shardOptions(), opts.Policy.policy())
	if err != nil {
		return nil, err
	}
	return newLiveShardedIndex(s), nil
}

// Live converts a ShardedIndex into its live serving form: every
// shard's tree is frozen into its first epoch's base.
func (x *ShardedIndex) Live(pol LivePolicy) (*LiveShardedIndex, error) {
	s, err := x.s.Live(pol.policy())
	if err != nil {
		return nil, err
	}
	return newLiveShardedIndex(s), nil
}

// Live converts a frozen sharded index into its live serving form — the
// restore path that makes a read-only sharded snapshot mutable again. An
// index restored with a partitioner kind this build does not know
// converts too: it serves queries and Deletes, and Insert returns
// ErrImmutable because new writes cannot be routed.
func (x *FrozenShardedIndex) Live(pol LivePolicy) (*LiveShardedIndex, error) {
	s, err := x.s.Live(pol.policy())
	if err != nil {
		return nil, err
	}
	return newLiveShardedIndex(s), nil
}

// NumShards returns the number of shards.
func (x *LiveShardedIndex) NumShards() int { return x.s.NumShards() }

// ShardSizes returns each shard's logical corpus size.
func (x *LiveShardedIndex) ShardSizes() []int { return x.s.Sizes() }

// Len returns the total logical corpus size.
func (x *LiveShardedIndex) Len() int { return x.s.Len() }

// Insert routes a user trajectory to its shard's delta overlay. Safe
// concurrently with every query method and with other writes. Indexes
// restored with an unknown partitioner return ErrImmutable.
func (x *LiveShardedIndex) Insert(u *Trajectory) error { return x.s.Insert(u) }

// Delete removes the trajectory with the given id from whichever shard
// holds it, reporting whether it was present. Safe concurrently with
// every query method — and works even when Insert is ErrImmutable,
// because deletion routes by ID lookup, not by partitioner. The error
// is always nil without a WAL; with one attached it reports a
// durability failure (the delete was not acknowledged).
func (x *LiveShardedIndex) Delete(id ID) (bool, error) { return x.s.Delete(id) }

// Compact synchronously folds every shard's pending writes into fresh
// frozen bases, one shard at a time.
func (x *LiveShardedIndex) Compact() error { return x.s.Compact() }

// Stats returns per-shard serving state.
func (x *LiveShardedIndex) Stats() []LiveShardStats { return x.s.Stats() }

// Version returns a monotone counter that increases after every
// acknowledged write and every background rebuild swap. Two equal
// reads bracketing a query prove the answer reflects the current
// corpus — the key for epoch-keyed result caching.
func (x *LiveShardedIndex) Version() uint64 { return x.s.Version() }

// Err returns the most recent background-rebuild error, or nil.
func (x *LiveShardedIndex) Err() error { return x.s.Err() }

// UpperBoundsCtx returns every facility's seed upper bound summed over
// one write-consistent epoch capture, indexed like facilities — each a
// sound overestimate of the facility's exact service value, read in one
// tree descent per shard with nothing evaluated. It is a diagnostic: no
// query consults it (kept because the repository benchmark times it as
// query.upperbounds_ms; ROADMAP item 1b drops both).
func (x *LiveShardedIndex) UpperBoundsCtx(ctx context.Context, facilities []*Facility, q Query) ([]float64, error) {
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

// epochs exposes the current per-shard epoch capture to the snapshot
// writer.
func (x *LiveShardedIndex) epochs() []*query.Epoch { return x.s.Epochs() }

func (x *LiveIndex) epochs() []*query.Epoch { return x.s.Epochs() }
