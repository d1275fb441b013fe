package trajcover

import (
	"context"
	"runtime"

	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
)

// queryCore is the index behind a querier: the scatter-gather embedded
// in *shard.Frozen and *shard.Live — scatter[*query.FrozenEngine] and
// scatter[*query.Epoch] — over one shard or several.
type queryCore interface {
	Source() *shard.Source
	ServiceValue(*Facility, query.Params) (float64, query.Metrics, error)
	ServiceValuesCtx(ctx context.Context, facilities []*Facility, p query.Params, workers int) ([]float64, query.Metrics, error)
	TopKCtx(ctx context.Context, facilities []*Facility, k int, p query.Params, workers int) ([]query.Result, query.Metrics, error)
	ServiceValuesStreamCtx(ctx context.Context, facilities []*Facility, p query.Params, workers, chunk int, yield func(start int, vals []float64) error) (query.Metrics, error)
}

// querier is the query surface, embedded in both index types: Index and
// FrozenIndex answer the nine kMaxRRST methods and the two coverage
// methods below through one path, whatever their shard count, and differ
// only in whether they can be mutated.
//
// An index of several shards sums per-shard answers, so its values match
// a one-shard index's exactly for integral scenarios (Binary; every
// scenario over integral service values) and up to floating-point
// summation order otherwise. An Index answers each call — a whole batch,
// a whole stream — over one write-consistent epoch capture taken when
// the call starts — MaxCoverage and ServedUsers too, over all the
// calls they make. Both types are safe for any number of concurrent
// readers, and an Index for writers beside them.
type querier struct {
	core queryCore
}

// ServiceValue computes SO(U, f): the exact service value of one facility
// (Algorithm 1 of the paper).
func (x *querier) ServiceValue(f *Facility, q Query) (float64, error) {
	v, _, err := x.core.ServiceValue(f, q.params())
	return v, err
}

// ServiceValues computes the exact service value of every facility in
// one batch, sharding the work across a pool of `workers` goroutines
// (workers <= 0 uses GOMAXPROCS). The result is indexed like facilities
// and identical to calling ServiceValue in a loop.
func (x *querier) ServiceValues(facilities []*Facility, q Query, workers int) ([]float64, error) {
	return x.ServiceValuesCtx(context.Background(), facilities, q, workers)
}

// TopK answers the kMaxRRST query: the k facilities with the highest
// service value, best first (value descending, ID ascending). Every
// facility is evaluated in one batch, so the answer is exactly
// sort-and-cut over ServiceValues — the same values, bit for bit.
func (x *querier) TopK(facilities []*Facility, k int, q Query) ([]Ranked, error) {
	return x.TopKCtx(context.Background(), facilities, k, q)
}

// TopKWithMetrics is TopK returning work metrics for diagnostics (merged
// over the shards, where there are several). They are an exact pass's:
// the same whatever k is, with no best-first relaxations.
func (x *querier) TopKWithMetrics(facilities []*Facility, k int, q Query) ([]Ranked, QueryMetrics, error) {
	return x.core.TopKCtx(context.Background(), facilities, k, q.params(), 1)
}

// TopKParallel is TopK with the batch's exact evaluations on a pool of
// `workers` goroutines per shard (workers <= 0 uses GOMAXPROCS). The
// answer is identical to TopK; spare cores buy wall-clock speed.
func (x *querier) TopKParallel(facilities []*Facility, k int, q Query, workers int) ([]Ranked, error) {
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
func (x *querier) ServiceValuesCtx(ctx context.Context, facilities []*Facility, q Query, workers int) ([]float64, error) {
	vs, _, err := x.core.ServiceValuesCtx(ctx, facilities, q.params(), workers)
	return vs, err
}

// TopKCtx is TopK with cooperative cancellation: ctx is polled between
// per-facility evaluations, and a done context aborts the query with
// ctx.Err() and no partial answer.
func (x *querier) TopKCtx(ctx context.Context, facilities []*Facility, k int, q Query) ([]Ranked, error) {
	return x.TopKParallelCtx(ctx, facilities, k, q, 1)
}

// TopKParallelCtx is TopKParallel with cooperative cancellation, polled
// between per-facility evaluations in every worker; see TopKCtx.
func (x *querier) TopKParallelCtx(ctx context.Context, facilities []*Facility, k int, q Query, workers int) ([]Ranked, error) {
	res, _, err := x.core.TopKCtx(ctx, facilities, k, q.params(), workers)
	return res, err
}

// ServiceValuesStreamCtx streams SO(U, f) for every facility in chunks
// of the given size (<= 0 uses a default of a few hundred), calling
// yield once per chunk in facility order. Each chunk's values are
// computed by the same batch core as ServiceValuesCtx, and a facility's
// value does not depend on which other facilities share its batch — so
// streamed values are bit-identical to the batch answer over the same
// facilities. A yield error or a done context aborts the stream early.
func (x *querier) ServiceValuesStreamCtx(ctx context.Context, facilities []*Facility, q Query, workers, chunk int, yield StreamVisitor) error {
	_, err := x.core.ServiceValuesStreamCtx(ctx, facilities, q.params(), workers, chunk, yield)
	return err
}

// ServedUsers returns every user with positive service from the facility
// — the reverse range search underlying kMaxRRST — ordered by service
// value descending (ties by ID).
func (x *querier) ServedUsers(f *Facility, q Query) ([]ServedUser, error) {
	src := x.core.Source()
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
func (x *querier) MaxCoverage(facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error) {
	src := x.core.Source()
	defer runtime.KeepAlive(src) // the table's users may alias a mapped base
	if opts.Algorithm == TwoStepGreedy {
		return maxcov.TwoStep(src, facilities, k, opts.KPrime, q.params())
	}
	return solveCoverage(src, facilities, k, q, opts)
}
