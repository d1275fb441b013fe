package shard

import (
	"context"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Params re-exports the query parameter bundle for shard callers.
type Params = query.Params

// DefaultStreamChunk is the facility-batch granularity of
// ServiceValuesStreamCtx when the caller passes chunk <= 0: large enough
// to amortize per-chunk setup and keep a worker pool busy, small enough
// that first results arrive quickly.
const DefaultStreamChunk = 256

// unit is one shard as the scatter-gather sees it: something that can
// check a scenario against its data, answer exact service values, for one
// facility or a batch, and cover a facility's users. *query.FrozenEngine
// (frozen columns) and *query.Epoch (frozen base + delta overlay +
// tombstones) both are one. Users are disjoint across units, so a
// facility's service value is the sum of its per-unit values and its
// coverage the union of their masks — which is all the code below relies
// on.
type unit interface {
	ValidateScenario(service.Scenario) error
	ServiceValue(*trajectory.Facility, Params) (float64, query.Metrics, error)
	ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, query.Metrics, error)
	Coverage(*trajectory.Facility, Params) (service.Coverage, query.Metrics, error)
	User(trajectory.ID) *trajectory.Trajectory
	Variant() tqtree.Variant
}

// scatter is the query surface of every index, written once over a slice
// of units and embedded in Frozen and Live, whatever their shard count
// (the root package's Index is a Live, its FrozenIndex a Frozen). capture
// returns the units one query runs over: the fixed shard slice for Frozen, one
// write-consistent epoch cut (Live.Epochs) for Live — taken once per call,
// so a query (or a whole stream, or a whole MaxkCovRST solve through
// Source) is unaffected by writes and swaps that land while it runs.
type scatter[U unit] struct {
	capture func() []U
}

func fixedUnits[U unit](units []U) scatter[U] {
	return scatter[U]{capture: func() []U { return units }}
}

// validate checks the query parameters and their compatibility with
// every unit — scenario validity depends on per-shard data (a TwoPoint
// tree over multipoint data answers Binary only), so all are consulted.
func validate[U unit](units []U, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, u := range units {
		if err := u.ValidateScenario(p.Scenario); err != nil {
			return err
		}
	}
	return nil
}

// sumValues scatters one batch to every unit and folds the per-unit
// answers in shard order, so the sums are deterministic.
func sumValues[U unit](ctx context.Context, units []U, facilities []*trajectory.Facility, p Params, workers int, m *query.Metrics) ([]float64, error) {
	out := make([]float64, len(facilities))
	for _, u := range units {
		vs, um, err := u.ServiceValuesCtx(ctx, facilities, p, workers)
		if err != nil {
			return nil, err
		}
		for i, v := range vs {
			out[i] += v
		}
		m.Add(um)
	}
	return out, nil
}

// ServiceValue computes SO(U, f) as the sum of per-shard service values,
// accumulated in shard order so the answer is deterministic.
func (s scatter[U]) ServiceValue(f *trajectory.Facility, p Params) (float64, query.Metrics, error) {
	var m query.Metrics
	var so float64
	for _, u := range s.capture() {
		v, um, err := u.ServiceValue(f, p)
		if err != nil {
			return 0, m, err
		}
		so += v
		m.Add(um)
	}
	return so, m, nil
}

// ServiceValues is ServiceValuesCtx without a deadline.
func (s scatter[U]) ServiceValues(facilities []*trajectory.Facility, p Params, workers int) ([]float64, query.Metrics, error) {
	return s.ServiceValuesCtx(context.Background(), facilities, p, workers)
}

// ServiceValuesCtx computes the exact service value of every facility by
// scattering the batch to every shard and summing per-shard answers in
// shard order. Each shard's batch runs on the shared worker budget and
// polls ctx between facilities, returning ctx.Err() instead of an answer
// once the context is done. The output is indexed like facilities.
func (s scatter[U]) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, query.Metrics, error) {
	var m query.Metrics
	out, err := sumValues(ctx, s.capture(), facilities, p, workers, &m)
	return out, m, err
}

// ServiceValuesStreamCtx streams SO(U, f) in chunks of the given size
// (<= 0: DefaultStreamChunk), calling yield(start, vals) once per
// chunk in facility order. Each chunk runs the ordinary per-shard batch
// and the same fold as ServiceValuesCtx, so streamed values are
// bit-identical to the batch answer. A yield error or a done context
// aborts the stream; Metrics accumulate across yielded chunks.
func (s scatter[U]) ServiceValuesStreamCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers, chunk int, yield func(start int, vals []float64) error) (query.Metrics, error) {
	units := s.capture()
	var m query.Metrics
	// Validate before the loop so an empty facility list still surfaces
	// bad parameters, like the batch path.
	if err := validate(units, p); err != nil {
		return m, err
	}
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	for start := 0; start < len(facilities); start += chunk {
		end := min(start+chunk, len(facilities))
		vals, err := sumValues(ctx, units, facilities[start:end], p, workers, &m)
		if err != nil {
			return m, err
		}
		if err := yield(start, vals); err != nil {
			return m, err
		}
	}
	return m, nil
}

// TopK is TopKCtx without a deadline.
func (s scatter[U]) TopK(facilities []*trajectory.Facility, k int, p Params) ([]query.Result, query.Metrics, error) {
	return s.TopKCtx(context.Background(), facilities, k, p)
}

// TopKCtx answers kMaxRRST over all shards: the k facilities with the
// highest total service value, best first (value descending, ID
// ascending) — exactly sort-and-cut over ServiceValuesCtx, bit for bit.
// Answers match a one-shard index's exactly for integral scenarios such
// as Binary, up to floating-point summation order otherwise. ctx is
// polled between facilities and a done context returns ctx.Err() instead
// of an answer.
func (s scatter[U]) TopKCtx(ctx context.Context, facilities []*trajectory.Facility, k int, p Params) ([]query.Result, query.Metrics, error) {
	return s.topK(ctx, facilities, k, p, 1)
}

// TopKParallel is TopKParallelCtx without a deadline.
func (s scatter[U]) TopKParallel(facilities []*trajectory.Facility, k int, p Params, workers int) ([]query.Result, query.Metrics, error) {
	return s.TopKParallelCtx(context.Background(), facilities, k, p, workers)
}

// TopKParallelCtx is TopKCtx with the batch evaluated on a pool of
// `workers` goroutines per shard (normalized by query.ResolveWorkers);
// the answer is identical.
func (s scatter[U]) TopKParallelCtx(ctx context.Context, facilities []*trajectory.Facility, k int, p Params, workers int) ([]query.Result, query.Metrics, error) {
	return s.topK(ctx, facilities, k, p, workers)
}

// topK is the served kMaxRRST: every facility's exact value in one
// sumValues pass, then query.Results. The paper's best-first search
// (Algorithms 3/4) stays on the engines, for the figures: on one tree it
// scores nearly every entry an exact pass does, and across units only a
// summed seed bound could prune, which measured (tqbench -exp bound)
// never ranks a facility below the k-th value.
func (s scatter[U]) topK(ctx context.Context, facilities []*trajectory.Facility, k int, p Params, workers int) ([]query.Result, query.Metrics, error) {
	units := s.capture()
	var m query.Metrics
	if err := validate(units, p); err != nil {
		return nil, m, err
	}
	if k <= 0 || len(facilities) == 0 {
		return nil, m, nil // query.Results reads k <= 0 as "every facility"
	}
	vals, err := sumValues(ctx, units, facilities, p, workers, &m)
	if err != nil {
		return nil, m, err
	}
	return query.Results(facilities, vals, k), m, nil
}

// Source captures the units once and returns them as the input of a
// query that makes many calls — a MaxkCovRST solve, a served-users answer
// — so every call sees one epoch cut.
func (s scatter[U]) Source() *Source {
	units := s.capture()
	src := &Source{units: make([]unit, len(units))}
	for i, u := range units {
		src.units[i] = u
	}
	return src
}

// Source is one capture of an index's shards as the coverage queries read
// it: internal/maxcov's coverage source, and the exact batch its two-step
// greedy ranks by.
type Source struct {
	units []unit
}

// Variant returns the shards' decomposition variant.
func (s *Source) Variant() tqtree.Variant { return s.units[0].Variant() }

// Coverage computes a facility's per-user coverage masks: the union of
// every shard's, which never overlap because users are disjoint across
// shards.
func (s *Source) Coverage(f *trajectory.Facility, p Params) (service.Coverage, error) {
	if err := validate(s.units, p); err != nil {
		return nil, err
	}
	cov := service.Coverage{}
	for _, u := range s.units {
		c, _, err := u.Coverage(f, p)
		if err != nil {
			return nil, err
		}
		for id, mask := range c {
			cov[id] = mask
		}
	}
	return cov, nil
}

// User returns the trajectory with the given id from whichever shard
// holds it, or nil.
func (s *Source) User(id trajectory.ID) *trajectory.Trajectory {
	for _, u := range s.units {
		if t := u.User(id); t != nil {
			return t
		}
	}
	return nil
}

// ServiceValues is the served exact pass over the captured shards — the
// sums a top-k sorts and cuts — on one worker per shard.
func (s *Source) ServiceValues(facilities []*trajectory.Facility, p Params) ([]float64, error) {
	if err := validate(s.units, p); err != nil {
		return nil, err
	}
	var m query.Metrics
	return sumValues(context.Background(), s.units, facilities, p, 1, &m)
}
