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

// The query surface of every index, written once over a Live's shards,
// whatever their count (the root package's Index is a Live). Each shard
// is one query.Epoch; one that has taken no write since its base was
// built or restored has nothing pending. Users are disjoint across
// shards, so a facility's service value is the sum of its per-shard
// values and a batch's coverage table the concatenation of theirs —
// which is all the code below relies on.
//
// Every call runs over one write-consistent cut of the shards' epochs
// (Live.Epochs), taken once when it starts, so a query (or a whole
// MaxkCovRST solve through Source) is unaffected by writes and swaps
// that land while it runs.

// stackShards is how many shards a batch captures into a buffer on its
// own stack; an index of more shards captures onto the heap.
const stackShards = 8

// validate checks the query parameters and their compatibility with
// every shard — scenario validity depends on per-shard data (a TwoPoint
// tree over multipoint data answers Binary only), so all are consulted.
func validate(eps []*query.Epoch, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for _, ep := range eps {
		if err := ep.ValidateScenario(p.Scenario); err != nil {
			return err
		}
	}
	return nil
}

// sumValues scatters one batch to every shard and folds the per-shard
// answers into one slice in shard order, so the sums are deterministic.
func sumValues(ctx context.Context, eps []*query.Epoch, facilities []*trajectory.Facility, p Params, workers int, m *query.Metrics) ([]float64, error) {
	out := make([]float64, len(facilities))
	for _, ep := range eps {
		um, err := ep.AddServiceValuesCtx(ctx, facilities, p, workers, out)
		if err != nil {
			return nil, err
		}
		m.Add(um)
	}
	return out, nil
}

// ServiceValue computes SO(U, f) as the sum of per-shard service values,
// accumulated in shard order so the answer is deterministic.
func (l *Live) ServiceValue(f *trajectory.Facility, p Params) (float64, query.Metrics, error) {
	var m query.Metrics
	var so float64
	var buf [stackShards]*query.Epoch
	for _, ep := range l.appendEpochs(buf[:0]) {
		v, um, err := ep.ServiceValue(f, p)
		if err != nil {
			return 0, m, err
		}
		so += v
		m.Add(um)
	}
	return so, m, nil
}

// ServiceValuesCtx computes the exact service value of every facility by
// scattering the batch to every shard and summing per-shard answers in
// shard order. Each shard's batch runs on the shared worker budget and
// polls ctx between facilities, returning ctx.Err() instead of an answer
// once the context is done. The output is indexed like facilities.
func (l *Live) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, query.Metrics, error) {
	var m query.Metrics
	var buf [stackShards]*query.Epoch
	out, err := sumValues(ctx, l.appendEpochs(buf[:0]), facilities, p, workers, &m)
	return out, m, err
}

// TopKCtx answers kMaxRRST over all shards: the k facilities with the
// highest total service value, best first (value descending, ID
// ascending) — exactly sort-and-cut over ServiceValuesCtx, bit for bit,
// whatever the worker count. Answers match a one-shard index's exactly
// for integral scenarios such as Binary, up to floating-point summation
// order otherwise. Each shard's batch runs on a pool of `workers`
// goroutines (normalized by query.ResolveWorkers); ctx is polled between
// facilities and a done context returns ctx.Err() instead of an answer.
//
// This is the served kMaxRRST: every facility's exact value in one
// sumValues pass, then query.Results. The paper's best-first search
// (Algorithms 3/4) stays in internal/query, for the figures: on one tree
// it scores nearly every entry an exact pass does, and across shards only
// a summed seed bound could prune, which measured (tqbench -exp bound)
// never ranks a facility below the k-th value.
func (l *Live) TopKCtx(ctx context.Context, facilities []*trajectory.Facility, k int, p Params, workers int) ([]query.Result, query.Metrics, error) {
	var buf [stackShards]*query.Epoch
	eps := l.appendEpochs(buf[:0])
	var m query.Metrics
	if err := validate(eps, p); err != nil {
		return nil, m, err
	}
	if k <= 0 || len(facilities) == 0 {
		return nil, m, nil // query.Results reads k <= 0 as "every facility"
	}
	vals, err := sumValues(ctx, eps, facilities, p, workers, &m)
	if err != nil {
		return nil, m, err
	}
	return query.Results(facilities, vals, k), m, nil
}

// Source captures the epochs once and returns them as the input of a
// query that makes many calls — a MaxkCovRST solve, a served-users answer
// — so every call sees one epoch cut.
func (l *Live) Source() *Source {
	return &Source{eps: l.appendEpochs(nil)}
}

// Source is one capture of an index's shards as the coverage queries read
// it: internal/maxcov's coverage source, and the exact batch its two-step
// greedy ranks by.
type Source struct {
	eps []*query.Epoch
}

// Variant returns the shards' decomposition variant.
func (s *Source) Variant() tqtree.Variant { return s.eps[0].Variant() }

// Cover computes a facility batch's coverage table: every shard's, joined
// in shard order with each shard's user slots after the ones before it —
// users are disjoint across shards, so no user holds two slots.
func (s *Source) Cover(facilities []*trajectory.Facility, p Params) (*service.CoverTable, error) {
	if err := validate(s.eps, p); err != nil {
		return nil, err
	}
	parts := make([]*service.CoverTable, len(s.eps))
	for i, ep := range s.eps {
		t, _, err := ep.Cover(facilities, p)
		if err != nil {
			return nil, err
		}
		parts[i] = t
	}
	return service.ConcatCover(parts), nil
}

// ServiceValues is the served exact pass over the captured shards — the
// sums a top-k sorts and cuts — on one worker per shard.
func (s *Source) ServiceValues(facilities []*trajectory.Facility, p Params) ([]float64, error) {
	if err := validate(s.eps, p); err != nil {
		return nil, err
	}
	var m query.Metrics
	return sumValues(context.Background(), s.eps, facilities, p, 1, &m)
}
