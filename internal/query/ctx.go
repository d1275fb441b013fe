package query

// Cancellation-aware batch execution. A long-running server cannot let a
// query outlive its request: once the client's deadline expires, every
// evaluation after it is wasted work stolen from queued requests.
// Epoch.ServiceValuesCtx accepts a context.Context and aborts between
// per-facility evaluations — the unit of work the batch already
// schedules — returning ctx.Err() (context.DeadlineExceeded or
// context.Canceled) with no partial answer. Every served top-k is one
// such batch per shard plus Results (internal/shard's scatter), so this
// is the one place a query polls its deadline.
//
// The batch loop (addServiceValues in layout.go) polls CtxErr once per
// facility. A nil context costs a branch; any other costs its Err, which
// for the serving tier's request deadline is a clock read and its
// parent's Err — no channel and no timer — far below the node-list
// evaluations a facility performs.

import "context"

// CtxErr is the one cancellation poll of this module: the batch loop
// calls it between facilities, and Index's bound diagnostic too. It
// returns ctx.Err(), re-read per poll so that custom contexts (including
// test clocks) see every check, and never asks for Done: a context that
// makes its channel or timer lazily, as the serving tier's deadline does,
// makes neither for a poll.
func CtxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
