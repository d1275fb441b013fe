package dist

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/server"
)

// exchange is one open POST /v1/exchange to one member of one group (the
// protocol is internal/server/exchange.go's): frames go out through pw,
// replies come back on body, and the request stays open between them.
// timer bounds each frame round trip by cancelling ctx, and ctx ending —
// that way, or with the request it derives from — closes the pipe
// (unpipe deregisters that): the transport does not return from a failed
// round trip while its write loop is still blocked reading the body.
type exchange struct {
	g      *feGroup
	mi     int // the member: g.members[mi]
	pw     *io.PipeWriter
	body   io.ReadCloser
	ctx    context.Context
	cancel context.CancelCauseFunc
	unpipe func() bool
	rpc    time.Duration // Frontend.cfg.RPCTimeout
	timer  *time.Timer
	in     []byte    // the last reply's payload
	first  []float64 // the first reply: bounds, or a one-round read's values (aliases in)
}

// exchangeBody is an exchange's request body: the opening frames, which
// the transport reads straight from memory while Do waits for the reply
// to them, then whatever the merge writes into the pipe.
type exchangeBody struct {
	first []byte
	pr    *io.PipeReader
}

func (b *exchangeBody) Read(p []byte) (int, error) {
	if len(b.first) > 0 {
		n := copy(p, b.first)
		b.first = b.first[n:]
		return n, nil
	}
	return b.pr.Read(p)
}

func (b *exchangeBody) Close() error { return b.pr.Close() }

// lostError is a member that failed after its exchange's first reply:
// what it has contributed so far came from an epoch no other member can
// continue, so the merge must start over without it.
type lostError struct {
	x   *exchange
	err error
}

func (e *lostError) Error() string { return fmt.Sprintf("%s lost mid-exchange: %v", e.x.url(), e.err) }
func (e *lostError) Unwrap() error { return e.err }

// backendError classifies a backend's verdict, delivered as an HTTP
// status or an error frame: a 4xx other than 429 is the request's fault
// (permanentError, relayed as-is), anything else the member's.
func backendError(m *feMember, status int, body []byte) error {
	if status >= 400 && status < 500 && status != http.StatusTooManyRequests {
		return &permanentError{status: status, body: append([]byte(nil), body...)}
	}
	return fmt.Errorf("%s %d %s: %s", m.url, status, http.StatusText(status), body)
}

// open starts an exchange with m by sending first — the query frame, and
// for a one-round read the round frame behind it — and reads the first
// reply, which must be a frame of the given kind holding n numbers
// (x.first). Any failure closes the exchange.
func (fe *Frontend) open(ctx context.Context, g *feGroup, mi int, first []byte, kind server.FrameKind, n int) (*exchange, error) {
	m := g.members[mi]
	xctx, cancel := context.WithCancelCause(ctx)
	pr, pw := io.Pipe()
	x := &exchange{g: g, mi: mi, pw: pw, ctx: xctx, cancel: cancel, rpc: fe.cfg.RPCTimeout}
	x.unpipe = context.AfterFunc(xctx, func() { pw.CloseWithError(context.Cause(xctx)) })
	x.timer = time.AfterFunc(x.rpc, func() {
		cancel(fmt.Errorf("%s: no reply within %v: %w", m.url, x.rpc, context.DeadlineExceeded))
	})
	req, err := http.NewRequestWithContext(xctx, http.MethodPost, m.url+server.PathExchange, &exchangeBody{first: first, pr: pr})
	if err != nil {
		x.abort(err)
		return nil, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := fe.cfg.Client.Do(req)
	if err != nil {
		err = x.cause(err)
		x.abort(err)
		return nil, err
	}
	x.body = resp.Body
	if resp.StatusCode != http.StatusOK {
		// The backend is reading our body to its end before it finishes the
		// response: end it, and the connection survives the refusal.
		x.pw.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		err := backendError(m, resp.StatusCode, data)
		x.abort(err)
		return nil, err
	}
	fe.exchanges.Add(1)
	if x.first, err = x.recv(kind, n); err != nil {
		x.abort(err)
		return nil, err
	}
	return x, nil
}

func (x *exchange) url() string { return x.g.members[x.mi].url }

// cause prefers the reason the exchange's context was cancelled — the
// frame timer's, or the request's own deadline — over the transport error
// it surfaced as.
func (x *exchange) cause(err error) error {
	if c := context.Cause(x.ctx); c != nil {
		return c
	}
	return err
}

// send writes one frame; the backend's reply to it is due within
// RPCTimeout.
func (x *exchange) send(frame []byte) error {
	x.timer.Reset(x.rpc)
	if _, err := x.pw.Write(frame); err != nil {
		return x.cause(err)
	}
	return nil
}

// recv reads the reply frame, which must be of the given kind and hold n
// numbers; they stay valid until the next recv. An error frame comes back
// as the backendError it carries.
func (x *exchange) recv(kind server.FrameKind, n int) ([]float64, error) {
	got, payload, err := server.ReadFrame(x.body, x.in, 8*int64(n)+1<<20)
	x.in = payload
	x.timer.Stop()
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, x.cause(err)
	}
	if got == server.FrameError {
		status, _, body, err := server.DecodeErrorFrame(payload)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", x.url(), err)
		}
		err = backendError(x.g.members[x.mi], status, body)
		x.close() // it was the backend's last frame; body aliases x.in no longer
		return nil, err
	}
	if got != kind {
		return nil, fmt.Errorf("%s: reply frame of kind %d, want %d", x.url(), got, kind)
	}
	vals, err := server.DecodeFloatsFrame(payload, n)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", x.url(), err)
	}
	return vals, nil
}

// close ends a healthy exchange: the request body ends, the backend's
// handler returns, and once the response has ended too the connection
// goes back to the pool. The context is left for the request's own
// cancel to release: cancelling it here could reach the transport
// before the response's end does and cost the connection.
func (x *exchange) close() {
	x.timer.Reset(x.rpc)
	err := x.pw.Close()
	if err == nil {
		if _, _, err = server.ReadFrame(x.body, x.in, 0); err == nil {
			err = errors.New("reply frame after the last round")
		}
	}
	if err != io.EOF {
		x.abort(err)
		return
	}
	x.timer.Stop()
	x.unpipe()
	x.body.Close()
}

// abort releases everything the exchange holds; a non-nil err also tears
// the connection down.
func (x *exchange) abort(err error) {
	x.timer.Stop()
	x.pw.CloseWithError(err)
	if x.body != nil {
		x.body.Close()
	}
	x.cancel(err)
}

// read is one frontend read across its merge attempts: the frames every
// exchange opens with, and which members have failed it so far.
type read struct {
	fe    *Frontend
	ctx   context.Context
	first []byte           // query frame (+ round frame), shared by every exchange
	kind  server.FrameKind // the first reply's kind
	n     int              // facilities
	tried [][]bool         // [group][member]: failed this read, never asked again
	xs    []*exchange      // [group]: the attempt's open exchanges, nil where missing
}

func (fe *Frontend) newRead(ctx context.Context, first []byte, kind server.FrameKind, n int) *read {
	rd := &read{fe: fe, ctx: ctx, first: first, kind: kind, n: n, tried: make([][]bool, len(fe.groups)), xs: make([]*exchange, len(fe.groups))}
	for gi, g := range fe.groups {
		rd.tried[gi] = make([]bool, len(g.members))
	}
	return rd
}

// openGroup opens an exchange with some member of g, failing over across
// the group: healthy members first in round-robin order, then — in case
// the probe's verdicts are stale — the rest, never one that already
// failed this read. A member that fails is removed on the spot; a 4xx
// aborts the failover (the request is at fault). When every member has
// failed the caller gets a groupError wrapping the first failure.
func (rd *read) openGroup(g *feGroup) (*exchange, error) {
	fe, tried := rd.fe, rd.tried[g.id]
	n := uint32(len(g.members))
	start := g.rr.Add(1) % n // reduced before any conversion: the cursor wraps
	var firstErr error
	for pass := 0; pass < 2; pass++ {
		for i := uint32(0); i < n; i++ {
			mi := int((start + i) % n)
			m := g.members[mi]
			if tried[mi] || (pass == 0 && !m.healthy.Load()) {
				continue
			}
			if err := rd.ctx.Err(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return nil, &groupError{group: g.id, err: firstErr}
			}
			x, err := fe.open(rd.ctx, g, mi, rd.first, rd.kind, rd.n)
			if err == nil {
				return x, nil
			}
			var perm *permanentError
			if errors.As(err, &perm) {
				return nil, err
			}
			if firstErr == nil {
				firstErr = err
			}
			if rd.ctx.Err() != nil {
				continue // our own deadline, not the member's failure
			}
			rd.lose(g, mi)
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no members left to try")
	}
	return nil, &groupError{group: g.id, err: firstErr}
}

// openAll opens one exchange per group, in parallel, into rd.xs, and
// returns the failed group IDs in ascending order with the lowest one's
// error.
func (rd *read) openAll() (missing []int, firstErr error) {
	groups := rd.fe.groups
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for _, g := range groups[1:] {
		wg.Add(1)
		go func(g *feGroup) {
			defer wg.Done()
			rd.xs[g.id], errs[g.id] = rd.openGroup(g)
		}(g)
	}
	rd.xs[0], errs[0] = rd.openGroup(groups[0])
	wg.Wait()
	for gi, err := range errs {
		if err != nil {
			missing = append(missing, gi)
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return missing, firstErr
}

// closeAll ends the attempt's exchanges: cleanly when the read is done
// with them (err == nil), torn down otherwise.
func (rd *read) closeAll(err error) {
	for gi, x := range rd.xs {
		if x == nil {
			continue
		}
		if err == nil {
			x.close()
		} else {
			x.abort(err)
		}
		rd.xs[gi] = nil
	}
}

// lose records a member that failed this read: removed on the spot, and
// never asked again by this read.
func (rd *read) lose(g *feGroup, mi int) {
	g.members[mi].healthy.Store(false)
	rd.fe.failovers.Add(1)
	rd.tried[g.id][mi] = true
}

// attempt runs merge over one exchange per group — opened here, their
// first replies waiting in rd.xs, closed when merge returns — and repeats
// while members are lost mid-exchange — each restart opens fresh
// exchanges, so a group's numbers never mix two epochs — and since a lost
// member is never asked again, at most once per member. Groups missing
// from the FIRST attempt are what ?partial=1 may serve without; a group
// that answered once and cannot be reopened fails the read in both modes.
func (rd *read) attempt(partial bool, merge func() error) (missing []int, err error) {
	for restarts := 0; ; restarts++ {
		var unopened []int
		unopened, err = rd.openAll()
		if restarts == 0 {
			missing = unopened
			if err != nil && (!partial || len(missing) == len(rd.fe.groups)) {
				rd.closeAll(err)
				return missing, err
			}
		} else if len(unopened) > len(missing) {
			// A failed member is never retried, so the unopened set only
			// grows: longer means a group that had answered is gone.
			rd.closeAll(err)
			return missing, err
		}
		err = merge()
		rd.closeAll(err)
		var lost *lostError
		if !errors.As(err, &lost) || rd.ctx.Err() != nil {
			return missing, err // done, failed for good, or out of time — which is no member's fault
		}
		rd.lose(lost.x.g, lost.x.mi)
	}
}

// topK answers /v1/topk with query.TopKRounds — the threshold-round
// schedule the in-process sharded top-k runs — over shard groups: a
// facility's bound is the sum of the answering groups' bounds frames, and
// a round is one round frame to every answering group, answered by one
// values frame each, on the exchanges the bounds came over. A group
// missing from a partial answer is simply not summed — the answer then
// covers the surviving groups' corpus exactly. A group that fails a round
// restarts the merge (read.attempt): the other groups' sums are not an
// answer over any corpus without it.
func (rd *read) topK(facs []*trajcover.Facility, k int, partial bool) ([]trajcover.Ranked, []int, error) {
	fe := rd.fe
	var res []trajcover.Ranked
	var frame []byte  // the round frame, rebuilt in place every round
	var out []float64 // a round's sums; TopKRounds has copied them out by the next
	missing, err := rd.attempt(partial, func() error {
		var live []*exchange
		ub := make([]float64, len(facs))
		for _, x := range rd.xs {
			if x == nil {
				continue
			}
			live = append(live, x)
			fe.boundRPCs.Add(1)
			for i, b := range x.first {
				ub[i] += b
			}
		}
		var sent int
		var err error
		res, sent, err = query.TopKRounds(facs, ub, k, func(batch []int) ([]float64, error) {
			fe.exactRounds.Add(1)
			fe.exactRPCs.Add(uint64(len(live)))
			fe.exactFacilities.Add(uint64(len(batch) * len(live)))
			frame = server.AppendRoundFrame(frame[:0], batch)
			for _, x := range live {
				if err := x.send(frame); err != nil {
					return nil, &lostError{x: x, err: err}
				}
			}
			// Every group has the round by now and works on it at once;
			// the replies are folded in group order, like the in-process
			// scatter's shard order: exact, hence byte-identical to one
			// process, for integral scenarios.
			if cap(out) < len(batch) {
				out = make([]float64, len(batch))
			}
			out = out[:len(batch)]
			clear(out)
			for _, x := range live {
				vals, err := x.recv(server.FrameValues, len(batch))
				if err != nil {
					var perm *permanentError
					if errors.As(err, &perm) {
						return nil, err
					}
					return nil, &lostError{x: x, err: err}
				}
				for j, v := range vals {
					out[j] += v
				}
			}
			return out, nil
		})
		if err != nil {
			return err
		}
		fe.pruned.Add(uint64(len(facs) - sent))
		return nil
	})
	return res, missing, err
}

// serviceValues answers /v1/servicevalues: the same exchange with no
// bounds frame and one round naming every facility, so each group's whole
// answer is its first reply. The total service value of a facility is the
// sum of its per-group values (the groups partition the corpus), summed
// in group order — deterministic, and exact (hence byte-identical to one
// process) for integral scenarios.
func (rd *read) serviceValues(partial bool) ([]float64, []int, error) {
	sums := make([]float64, rd.n)
	missing, err := rd.attempt(partial, func() error {
		for _, x := range rd.xs {
			if x != nil {
				for i, v := range x.first {
					sums[i] += v
				}
			}
		}
		return nil
	})
	return sums, missing, err
}
