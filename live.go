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
// Index is the one index type. An index that takes no write answers from
// the epochs it was built or restored with; nothing in the type keeps it
// from being written, so a caller that wants it unchanged does not write.

import (
	"context"
	"runtime"

	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
)

// ErrDuplicateID rejects an Insert whose ID is already in the logical
// corpus. Typed so callers can tell a client mistake from a durability
// failure. Test with errors.Is.
var ErrDuplicateID = shard.ErrDuplicateID

// LivePolicy tunes when an Index folds a shard's pending churn (delta
// overlay + tombstones) into a fresh frozen base. Unless Manual, a
// shard rebuilds serially in the background once MaxDelta writes are
// pending or, past 64 pending writes, once the churn reaches 25% of the
// shard's base corpus.
type LivePolicy struct {
	// MaxDelta triggers a background rebuild at this many pending
	// writes per shard (0 means 4096).
	MaxDelta int
	// Manual disables automatic rebuilds; only Compact folds churn.
	Manual bool
}

func (p LivePolicy) policy() shard.Policy {
	return shard.Policy{MaxDelta: p.MaxDelta, Manual: p.Manual}
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
// values) and up to floating-point summation order otherwise. Each call
// — a whole batch, and MaxCoverage and ServedUsers over all the calls
// they make — runs over one write-consistent epoch capture taken when it
// starts. An Index is safe for any number of concurrent readers and
// writers.
type Index struct {
	s *shard.Live

	// wal holds the durability state when the index was opened with
	// OpenIndex; nil for purely in-memory indexes. See live_wal.go.
	wal *liveWAL
}

func newIndex(s *shard.Live) *Index {
	return &Index{s: s}
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
// duplicate ID is rejected with ErrDuplicateID, a trajectory of fewer
// than two points or with non-finite geometry (ErrNotFinite) as
// NewTrajectory rejects it. The index holds u itself in the overlay
// until the next fold copies it into a base, so a u from a generated or
// CSV-read corpus — whose trajectories share one header slab and arena —
// keeps that whole corpus reachable until then.
func (x *Index) Insert(u *Trajectory) error { return x.s.Insert(u) }

// Delete removes the trajectory with the given id from whichever shard
// holds it, reporting whether it was present. Safe concurrently with
// every query method. The error is always nil without a WAL; with one
// attached it reports a durability failure (the delete was not
// acknowledged).
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

// ServiceValue computes SO(U, f): the exact service value of one facility
// (Algorithm 1 of the paper).
func (x *Index) ServiceValue(f *Facility, q Query) (float64, error) {
	v, _, err := x.s.ServiceValue(f, q.params())
	return v, err
}

// ServiceValues computes the exact service value of every facility in
// one batch, sharding the work across a pool of `workers` goroutines
// (workers <= 0 uses GOMAXPROCS). The result is indexed like facilities
// and identical to calling ServiceValue in a loop.
func (x *Index) ServiceValues(facilities []*Facility, q Query, workers int) ([]float64, error) {
	return x.ServiceValuesCtx(context.Background(), facilities, q, workers)
}

// TopK answers the kMaxRRST query: the k facilities with the highest
// service value, best first (value descending, ID ascending). Every
// facility is evaluated in one batch, so the answer is exactly
// sort-and-cut over ServiceValues — the same values, bit for bit.
func (x *Index) TopK(facilities []*Facility, k int, q Query) ([]Ranked, error) {
	return x.TopKCtx(context.Background(), facilities, k, q)
}

// TopKWithMetrics is TopK returning work metrics for diagnostics (merged
// over the shards, where there are several). They are an exact pass's:
// the same whatever k is, with no best-first relaxations.
func (x *Index) TopKWithMetrics(facilities []*Facility, k int, q Query) ([]Ranked, QueryMetrics, error) {
	return x.s.TopKCtx(context.Background(), facilities, k, q.params(), 1)
}

// TopKParallel is TopK with the batch's exact evaluations on a pool of
// `workers` goroutines per shard (workers <= 0 uses GOMAXPROCS). The
// answer is identical to TopK; spare cores buy wall-clock speed.
func (x *Index) TopKParallel(facilities []*Facility, k int, q Query, workers int) ([]Ranked, error) {
	return x.TopKParallelCtx(context.Background(), facilities, k, q, workers)
}

// Deadline-aware variants. A context that cannot be cancelled
// (context.Background) adds no measurable overhead, which is why the
// plain forms above are the *Ctx forms with one. Cancellation is what
// lets a serving front end (cmd/tqserve) bound every request: an expired
// deadline stops the query instead of letting it run on and steal
// workers from queued requests.

// ServiceValuesCtx is ServiceValues with cooperative cancellation: ctx
// is polled between per-facility evaluations, and a done context aborts
// the batch with ctx.Err() and no partial answer.
func (x *Index) ServiceValuesCtx(ctx context.Context, facilities []*Facility, q Query, workers int) ([]float64, error) {
	vs, _, err := x.s.ServiceValuesCtx(ctx, facilities, q.params(), workers)
	return vs, err
}

// TopKCtx is TopK with cooperative cancellation: ctx is polled between
// per-facility evaluations, and a done context aborts the query with
// ctx.Err() and no partial answer.
func (x *Index) TopKCtx(ctx context.Context, facilities []*Facility, k int, q Query) ([]Ranked, error) {
	return x.TopKParallelCtx(ctx, facilities, k, q, 1)
}

// TopKParallelCtx is TopKParallel with cooperative cancellation, polled
// between per-facility evaluations in every worker; see TopKCtx.
func (x *Index) TopKParallelCtx(ctx context.Context, facilities []*Facility, k int, q Query, workers int) ([]Ranked, error) {
	res, _, err := x.s.TopKCtx(ctx, facilities, k, q.params(), workers)
	return res, err
}

// ServedUsers returns every user with positive service from the facility
// — the reverse range search underlying kMaxRRST — ordered by service
// value descending (ties by ID).
func (x *Index) ServedUsers(f *Facility, q Query) ([]ServedUser, error) {
	src := x.s.Source()
	defer runtime.KeepAlive(src) // the table's users may alias a mapped base
	cov, err := src.Cover([]*Facility{f}, q.params())
	if err != nil {
		return nil, err
	}
	return query.ServedUsers(cov, src.Variant(), q.Scenario), nil
}

// MaxCoverage answers the MaxkCovRST query: the size-k facility subset
// with the (approximately) maximum combined service, where users may be
// served jointly by multiple facilities. Facility IDs must be distinct.
func (x *Index) MaxCoverage(facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error) {
	src := x.s.Source()
	defer runtime.KeepAlive(src) // the table's users may alias a mapped base
	if opts.Algorithm == TwoStepGreedy {
		return maxcov.TwoStep(src, facilities, k, opts.KPrime, q.params())
	}
	return solveCoverage(src, facilities, k, q, opts)
}

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
