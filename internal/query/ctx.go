package query

// Cancellation-aware query execution. A long-running server cannot let a
// query outlive its request: once the client's deadline expires, every
// relaxation after it is wasted work stolen from queued requests. The
// entry points below accept a context.Context and abort between facility
// relaxations (TopK) or between per-facility evaluations (batch
// ServiceValues) — the units of work the paper's algorithms already
// schedule — returning ctx.Err() (context.DeadlineExceeded or
// context.Canceled) with no partial answer.
//
// The plumbing is a *canceller threaded through the shared generic loops
// in layout.go. A nil canceller (every pre-existing entry point) is a
// single predictable branch, so the non-ctx paths measure identically;
// a live canceller costs one channel poll per relaxation, far below the
// node-list evaluations a relaxation performs.

import (
	"context"
	"runtime"

	"github.com/trajcover/trajcover/internal/trajectory"
)

// CtxErr is the one cancellation poll every search loop in this module
// uses (directly, or via the canceller below): nil and never-cancellable
// contexts cost a branch, anything else a non-blocking channel select.
// Done() is re-queried per poll rather than cached so custom contexts
// (including test clocks) see every check. internal/shard's merges call
// it between facility relaxations.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// canceller carries an optional context into the generic search loops.
// The nil *canceller means "never cancelled" and is what every non-ctx
// entry point passes.
type canceller struct {
	ctx context.Context
}

// newCanceller wraps ctx for the search loops. Contexts that can never
// be cancelled (context.Background, context.TODO, nil) yield a nil
// canceller so the loops skip even the channel poll.
func newCanceller(ctx context.Context) *canceller {
	if ctx == nil || ctx.Done() == nil {
		return nil
	}
	return &canceller{ctx: ctx}
}

// stopped returns the context's error once it is done, nil before.
func (c *canceller) stopped() error {
	if c == nil {
		return nil
	}
	return CtxErr(c.ctx)
}

// ServiceValuesCtx is ServiceValues with cooperative cancellation: the
// batch checks ctx between per-facility evaluations (in every worker)
// and returns ctx.Err() instead of an answer once the context is done.
func (e *Engine) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	return serviceValuesG[*tqtreeNode](ptrLayout{e.tree}, facilities, p, workers, newCanceller(ctx), nil)
}

// TopKCtx is TopK with cooperative cancellation: the best-first search
// checks ctx between facility relaxations and returns ctx.Err() instead
// of an answer once the context is done.
func (e *Engine) TopKCtx(ctx context.Context, facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	return topKG[*tqtreeNode](ptrLayout{e.tree}, facilities, k, p, newCanceller(ctx))
}

// TopKParallelCtx is TopKParallel with cooperative cancellation, checked
// between relaxation rounds. workers is normalized by ResolveWorkers; a
// single-worker pool runs the serial ctx-aware search.
func (e *Engine) TopKParallelCtx(ctx context.Context, facilities []*trajectory.Facility, k int, p Params, workers int) ([]Result, Metrics, error) {
	workers = ResolveWorkers(workers, len(facilities))
	if workers <= 1 {
		return e.TopKCtx(ctx, facilities, k, p)
	}
	return topKParallelG[*tqtreeNode](ptrLayout{e.tree}, facilities, k, p, workers, newCanceller(ctx))
}

// ServiceValuesCtx is FrozenEngine.ServiceValues with cooperative
// cancellation; see Engine.ServiceValuesCtx.
func (e *FrozenEngine) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return serviceValuesG[int32](frozenLayout{f: e.f}, facilities, p, workers, newCanceller(ctx), nil)
}

// TopKCtx is FrozenEngine.TopK with cooperative cancellation; see
// Engine.TopKCtx.
func (e *FrozenEngine) TopKCtx(ctx context.Context, facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return topKG[int32](frozenLayout{f: e.f}, facilities, k, p, newCanceller(ctx))
}

// TopKParallelCtx is FrozenEngine.TopKParallel with cooperative
// cancellation; see Engine.TopKParallelCtx.
func (e *FrozenEngine) TopKParallelCtx(ctx context.Context, facilities []*trajectory.Facility, k int, p Params, workers int) ([]Result, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	workers = ResolveWorkers(workers, len(facilities))
	if workers <= 1 {
		return e.TopKCtx(ctx, facilities, k, p)
	}
	return topKParallelG[int32](frozenLayout{f: e.f}, facilities, k, p, workers, newCanceller(ctx))
}

// ServiceValuesCtx is Epoch.ServiceValues with cooperative cancellation,
// checked between facilities.
func (ep *Epoch) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	defer runtime.KeepAlive(ep)
	return ep.serviceValues(facilities, p, workers, newCanceller(ctx))
}
