package query

// Cancellation-aware batch execution. A long-running server cannot let a
// query outlive its request: once the client's deadline expires, every
// evaluation after it is wasted work stolen from queued requests.
// Epoch.ServiceValuesCtx accepts a context.Context and aborts between
// per-facility evaluations — the unit of work the batch already
// schedules — returning ctx.Err() (context.DeadlineExceeded or
// context.Canceled) with no partial answer. Every served top-k is one
// such batch per shard plus Results (internal/shard's Scatter), so this
// is the one place a query polls its deadline.
//
// The batch loop (addServiceValues in layout.go) polls CtxErr once per
// facility. A nil context or one that can never be cancelled costs a
// branch, far below the node-list evaluations a facility performs.

import "context"

// CtxErr is the one cancellation poll of this module: the batch loop
// calls it between facilities, and Index's bound diagnostic too. nil and
// never-cancellable contexts cost a branch, anything else a non-blocking
// channel select. Done() is re-queried per poll rather than cached so
// custom contexts (including test clocks) see every check.
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
