package query

// Streaming execution: the batch service-value executor, re-cut to
// yield results incrementally. A stream chunks the facility list and
// runs the tested batch core (serviceValuesG) chunk by chunk, handing
// each chunk's values to a visitor as soon as they exist — first
// results after one chunk's work instead of after the whole batch, and
// peak memory bounded by the chunk, not the request. Per-facility
// values are independent of batch composition (each facility's
// traversal touches only that facility), so a streamed value is
// bit-identical to the same index's batch answer — the property the
// oracle tests pin.

import (
	"context"
	"runtime"

	"github.com/trajcover/trajcover/internal/trajectory"
)

// DefaultStreamChunk is the facility-batch granularity when the caller
// passes chunk <= 0: large enough to amortize per-chunk setup and keep
// a worker pool busy, small enough that first results arrive quickly.
const DefaultStreamChunk = 256

// serviceValuesStreamG chunks facilities and yields each chunk's batch
// result in order: yield(start, vals) with vals indexed like
// facilities[start : start+len(vals)]. A yield error aborts the stream
// and is returned verbatim; cancellation aborts between (and inside)
// chunks. Metrics accumulate across yielded chunks.
func serviceValuesStreamG[N comparable, L tlayout[N]](l L, facilities []*trajectory.Facility, p Params, workers, chunk int, cc *canceller, yield func(start int, vals []float64) error) (Metrics, error) {
	var m Metrics
	if err := validateQuery[N](l, p); err != nil {
		return m, err
	}
	if chunk <= 0 {
		chunk = DefaultStreamChunk
	}
	for start := 0; start < len(facilities); start += chunk {
		end := start + chunk
		if end > len(facilities) {
			end = len(facilities)
		}
		vals, cm, err := serviceValuesG[N](l, facilities[start:end], p, workers, cc, nil)
		m.Add(cm)
		if err != nil {
			return m, err
		}
		if err := yield(start, vals); err != nil {
			return m, err
		}
	}
	return m, nil
}

// ServiceValuesStreamCtx streams SO(U, f) for every facility in chunks
// of the given size (<= 0: DefaultStreamChunk), calling yield(start,
// vals) once per chunk, in facility order. Values are bit-identical to
// ServiceValuesCtx over the same facilities. A yield error or a done
// context aborts the stream.
func (e *Engine) ServiceValuesStreamCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers, chunk int, yield func(start int, vals []float64) error) (Metrics, error) {
	return serviceValuesStreamG[*tqtreeNode](ptrLayout{e.tree}, facilities, p, workers, chunk, newCanceller(ctx), yield)
}

// ServiceValuesStreamCtx is Engine.ServiceValuesStreamCtx over frozen
// columns.
func (e *FrozenEngine) ServiceValuesStreamCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers, chunk int, yield func(start int, vals []float64) error) (Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return serviceValuesStreamG[int32](frozenLayout{f: e.f}, facilities, p, workers, chunk, newCanceller(ctx), yield)
}
