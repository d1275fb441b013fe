package query

// Cancellation-aware batch execution. A long-running server cannot let a
// query outlive its request: once the client's deadline expires, every
// evaluation after it is wasted work stolen from queued requests. The
// ServiceValuesCtx entry points below accept a context.Context and abort
// between per-facility evaluations — the unit of work the batch already
// schedules — returning ctx.Err() (context.DeadlineExceeded or
// context.Canceled) with no partial answer. Every served top-k is one
// such batch plus Results (internal/shard's scatter), so this is the one
// place a query polls its deadline.
//
// The plumbing is a *canceller threaded through serviceValues in
// layout.go. A nil canceller (the plain ServiceValues) is a single
// predictable branch, so the non-ctx path measures identically; a live
// canceller costs one channel poll per facility, far below the node-list
// evaluations a facility performs.

import (
	"context"
	"runtime"

	"github.com/trajcover/trajcover/internal/trajectory"
)

// CtxErr is the one cancellation poll of this module: the batch loop
// calls it through the canceller below, and Index's bound diagnostic
// between facilities. nil and never-cancellable contexts cost
// a branch, anything else a non-blocking channel select. Done() is
// re-queried per poll rather than cached so custom contexts (including
// test clocks) see every check.
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

// canceller carries an optional context into the batch loop. The nil
// *canceller means "never cancelled" and is what the plain ServiceValues
// passes.
type canceller struct {
	ctx context.Context
}

// newCanceller wraps ctx for the batch loop. Contexts that can never be
// cancelled (context.Background, context.TODO, nil) yield a nil
// canceller so the loop skips even the channel poll.
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

// ServiceValuesCtx is FrozenEngine.ServiceValues with cooperative
// cancellation: the batch checks ctx between per-facility evaluations (in
// every worker) and returns ctx.Err() instead of an answer once the
// context is done.
func (e *FrozenEngine) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	defer runtime.KeepAlive(e.f)
	return serviceValues(frozenLayout{f: e.f}, facilities, p, workers, newCanceller(ctx), nil)
}

// ServiceValuesCtx is Epoch.ServiceValues with cooperative cancellation,
// checked between facilities.
func (ep *Epoch) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	defer runtime.KeepAlive(ep)
	return ep.serviceValues(facilities, p, workers, newCanceller(ctx))
}
