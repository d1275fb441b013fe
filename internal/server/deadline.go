package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// deadline is one request's deadline as the context its work runs under,
// kept in the request's pooled storage (QueryBuffer, exchangeState) and
// armed afresh for each request, so a request that neither waits nor
// overruns allocates nothing for it. Err reads the clock and the parent:
// the query executor's poll between facilities (query.CtxErr) needs no
// channel and no timer. Done, which only a caller that blocks asks for
// (waitSlot), makes the channel and arms a timer for the deadline and a
// hook on the parent to close it; Err closes it too the first time it
// reports the end, so Done is closed by the time Err returns non-nil, as
// the context contract requires.
//
// Value is the parent's, so context.Cause finds the parent's cause and
// can miss an end the deadline alone caused; the work under execute reads
// only Err, Done and Deadline.
type deadline struct {
	parent context.Context
	at     time.Time
	ended  atomic.Bool // err is set

	mu    sync.Mutex
	arms  uint64 // counts arm and disarm calls: a timer or hook set under an earlier count ends nothing
	err   error
	done  chan struct{}
	timer *time.Timer
	stop  func() bool // unhooks the parent's AfterFunc
}

// arm starts the context over for a request under parent that ends
// timeout from now.
func (d *deadline) arm(parent context.Context, timeout time.Duration) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arms++
	d.parent, d.at = parent, time.Now().Add(timeout)
	d.err, d.done = nil, nil
	d.ended.Store(false)
}

// disarm stops what Done armed and lets go of the parent, once the
// request's work is over and nothing waits on Done.
func (d *deadline) disarm() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arms++
	if d.timer != nil {
		d.timer.Stop()
		d.stop()
		d.timer, d.stop = nil, nil
	}
	d.parent = nil
}

// endLocked records err as the reason the context ended, unless one is
// recorded, and closes Done's channel if there is one. d.mu is held.
func (d *deadline) endLocked(err error) {
	if d.err != nil {
		return
	}
	d.err = err
	d.ended.Store(true)
	if d.done != nil {
		close(d.done)
	}
}

// expire is endLocked for a timer or hook of the arm it counts.
func (d *deadline) expire(arm uint64, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if arm == d.arms {
		d.endLocked(err)
	}
}

// Deadline is the earlier of the request's deadline and the parent's.
func (d *deadline) Deadline() (time.Time, bool) {
	if at, ok := d.parent.Deadline(); ok && at.Before(d.at) {
		return at, true
	}
	return d.at, true
}

func (d *deadline) Done() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.done != nil {
		return d.done
	}
	d.done = make(chan struct{})
	if d.err != nil {
		close(d.done)
		return d.done
	}
	arm, parent := d.arms, d.parent
	d.timer = time.AfterFunc(time.Until(d.at), func() { d.expire(arm, context.DeadlineExceeded) })
	d.stop = context.AfterFunc(parent, func() { d.expire(arm, parent.Err()) })
	return d.done
}

func (d *deadline) Err() error {
	if !d.ended.Load() {
		err := d.parent.Err()
		if err == nil {
			if time.Now().Before(d.at) {
				return nil
			}
			err = context.DeadlineExceeded
		}
		d.mu.Lock()
		d.endLocked(err)
		d.mu.Unlock()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

func (d *deadline) Value(key any) any { return d.parent.Value(key) }
