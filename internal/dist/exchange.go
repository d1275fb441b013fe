package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/trajcover/trajcover/internal/server"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// backendError classifies a backend's verdict: a 4xx other than 429 is
// the request's fault (permanentError, relayed as-is), anything else the
// member's.
func backendError(m *feMember, status int, body []byte) error {
	if status >= 400 && status < 500 && status != http.StatusTooManyRequests {
		return &permanentError{status: status, body: body}
	}
	return fmt.Errorf("%s %d %s: %s", m.url, status, http.StatusText(status), body)
}

// read is one frontend read: the client's request — its body, decoded
// request and facility table, and answer bytes, in pooled storage — and
// the query frame every group is sent (the protocol is
// internal/server/exchange.go's), which each must answer with one value
// per facility of the table.
type read struct {
	fe     *Frontend
	ctx    context.Context
	cancel context.CancelFunc
	buf    *server.QueryBuffer
	req    *server.QueryRequest
	table  trajectory.FacilityTable
	frame  []byte
}

// end releases what the read holds, once its answer is written.
func (rd *read) end() {
	rd.cancel()
	rd.buf.Release()
}

// octetStream is the exchange request's Content-Type header value.
var octetStream = []string{"application/octet-stream"}

// exchange asks one member for every facility's value over its corpus:
// one POST of the query frame, answered within RPCTimeout by exactly one
// values frame of n numbers (server.DecodeFloatsFrame; a reply of any
// other shape is the member's failure, not an answer).
func (rd *read) exchange(m *feMember) ([]float64, error) {
	ctx, cancel := context.WithTimeoutCause(rd.ctx, rd.fe.cfg.RPCTimeout, m.noReply)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.exchangeURL, bytes.NewReader(rd.frame))
	if err != nil {
		return nil, err
	}
	req.Header["Content-Type"] = octetStream
	resp, err := rd.fe.cfg.Client.Do(req)
	if err != nil {
		return nil, cause(ctx, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, backendError(m, resp.StatusCode, data)
	}
	rd.fe.exchanges.Add(1)
	vals, err := server.DecodeFloatsFrame(resp.Body, rd.table.Len())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.url, cause(ctx, err))
	}
	rd.fe.exactRPCs.Add(1)
	return vals, nil
}

// cause prefers the reason ctx ended — the exchange's own timeout, or the
// request's deadline — over the transport error it surfaced as.
func cause(ctx context.Context, err error) error {
	if c := context.Cause(ctx); c != nil {
		return c
	}
	return err
}

// askGroup gets g's values from some member, failing over across the
// group: healthy members first in round-robin order, then — in case the
// probe's verdicts are stale — the rest. A member that fails is removed
// on the spot and the next one asked from the top: an exchange is one
// request and one reply, so a member that dies after accepting it leaves
// no partial state behind. A 4xx aborts the failover (the request is at
// fault). When every member has failed the caller gets a groupError
// wrapping the first failure.
func (rd *read) askGroup(g *feGroup) ([]float64, error) {
	n := uint32(len(g.members))
	start := g.rr.Add(1) % n // reduced before any conversion: the cursor wraps
	tried := make([]bool, n)
	var firstErr error
	for pass := 0; pass < 2; pass++ {
		for i := uint32(0); i < n; i++ {
			mi := (start + i) % n
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
			tried[mi] = true
			vals, err := rd.exchange(m)
			if err == nil {
				return vals, nil
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
			m.healthy.Store(false)
			rd.fe.failovers.Add(1)
		}
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("no members left to try")
	}
	return nil, &groupError{group: g.id, err: firstErr}
}

// serviceValues answers /v1/servicevalues, and everything of /v1/topk but
// the sort: every group asked at once, and a facility's total service
// value the sum of its per-group values (the groups partition the
// corpus), folded in group order like the in-process scatter's shard
// order — deterministic, and exact (hence byte-identical to one process)
// for integral scenarios. missing lists the groups that could not answer,
// ascending; they fail the read unless partial asks for the sums over the
// rest — the exact answer over the surviving groups' corpus — and some
// group did answer.
func (rd *read) serviceValues(partial bool) (sums []float64, missing []int, err error) {
	groups := rd.fe.groups
	vals := make([][]float64, len(groups))
	errs := make([]error, len(groups))
	var wg sync.WaitGroup
	for _, g := range groups[1:] {
		wg.Add(1)
		go func(g *feGroup) {
			defer wg.Done()
			vals[g.id], errs[g.id] = rd.askGroup(g)
		}(g)
	}
	vals[0], errs[0] = rd.askGroup(groups[0])
	wg.Wait()
	for gi, gerr := range errs {
		if gerr != nil {
			missing = append(missing, gi)
			if err == nil {
				err = gerr
			}
		}
	}
	if err != nil && (!partial || len(missing) == len(groups)) {
		return nil, missing, err
	}
	sums = make([]float64, rd.table.Len())
	for _, vs := range vals {
		for i, v := range vs {
			sums[i] += v
		}
	}
	return sums, missing, nil
}
