package dist

import (
	"bufio"
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

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
// request and facility table, the query frame every group is sent (the
// protocol is internal/server/exchange.go's), and the answer's bytes, all
// in pooled storage — which each group must answer with one value per
// facility of the table.
type read struct {
	fe     *Frontend
	ctx    context.Context
	cancel context.CancelFunc
	buf    *server.QueryBuffer
	req    *server.QueryRequest
	table  trajectory.FacilityTable
}

// end releases what the read holds, once its answer is written.
func (rd *read) end() {
	rd.cancel()
	rd.buf.Release()
}

// exchangeConn is an upgraded exchange connection and the number of
// query frames sent on it, which its replies carry as their ordinal.
type exchangeConn struct {
	net.Conn
	asked uint16
}

// exchange asks one member for every facility's value over its corpus:
// the query frame sent on one of the member's exchange connections,
// answered by exactly one values frame of n numbers read into reply's
// storage (server.ReadReply; a reply of any other shape, or to another
// query, is the member's failure, not an answer), or by an error frame,
// judged by backendError.
// The connection's deadline is RPCTimeout or the request's, whichever
// comes first. A connection that fails in any way is closed, never
// pooled, so a late reply is never read as another exchange's; one taken
// from the pool that ended before any reply byte came — a member that
// dropped its idle connections, say by restarting — is retried once on
// a fresh one.
func (rd *read) exchange(m *feMember, reply []byte) ([]float64, error) {
	deadline, expired := time.Now().Add(rd.fe.cfg.RPCTimeout), m.noReply
	if d, ok := rd.ctx.Deadline(); ok && d.Before(deadline) {
		deadline, expired = d, context.DeadlineExceeded
	}
	c := m.idleConn()
	reused := c != nil
	for {
		if c == nil {
			var err error
			if c, err = m.dial(rd.ctx, deadline); err != nil {
				return nil, rd.failure(err, expired)
			}
		}
		c.SetDeadline(deadline)
		vals, started, err := rd.roundTrip(c, reply)
		if err == nil {
			m.putConn(c)
			rd.fe.exchanges.Add(1)
			rd.fe.exactRPCs.Add(1)
			return vals, nil
		}
		if rejected, ok := err.(*server.ErrorReply); ok {
			m.putConn(c) // a whole reply: the stream is in step
			return nil, backendError(m, rejected.Status, rejected.Body)
		}
		if started {
			rd.fe.exchanges.Add(1)
		}
		c.Close()
		if reused && !started && !isTimeout(err) && rd.ctx.Err() == nil {
			c, reused = nil, false
			continue
		}
		return nil, rd.failure(fmt.Errorf("%s: %w", m.url, err), expired)
	}
}

// roundTrip sends the read's query frame on c and reads the reply.
func (rd *read) roundTrip(c *exchangeConn, reply []byte) ([]float64, bool, error) {
	c.asked++
	if _, err := c.Write(rd.buf.Frame); err != nil {
		return nil, false, err
	}
	return server.ReadReply(c, reply, rd.table.Len(), c.asked)
}

// failure is the error an exchange that got no answer ends with: the
// reason the request ended, if it has; the exchange's own expiry —
// RPCTimeout's noReply, or the request deadline's DeadlineExceeded — if
// the connection's deadline passed; else err, the member's failure.
func (rd *read) failure(err, expired error) error {
	if c := context.Cause(rd.ctx); c != nil {
		return c
	}
	if isTimeout(err) {
		return expired
	}
	return err
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// idleConn takes one of m's idle exchange connections, or nil.
func (m *feMember) idleConn() *exchangeConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.idle)
	if n == 0 {
		return nil
	}
	c := m.idle[n-1]
	m.idle = m.idle[:n-1]
	return c
}

// putConn gives a connection whose exchange ended in step back to m's
// pool, or closes it when the pool is full or closed.
func (m *feMember) putConn(c *exchangeConn) {
	m.mu.Lock()
	if m.closed || len(m.idle) >= idleConnsPerBackend {
		m.mu.Unlock()
		c.Close()
		return
	}
	m.idle = append(m.idle, c)
	m.mu.Unlock()
}

// closeIdle closes m's idle connections, and any handed back later.
func (m *feMember) closeIdle() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	for _, c := range m.idle {
		c.Close()
	}
	m.idle = nil
}

// dial opens an exchange connection to m: the handshake, POST
// /v1/exchange upgraded to server.ExchangeProtocol, all before deadline.
// A backend that refuses the upgrade answers as any endpoint does, and
// its verdict is backendError's.
func (m *feMember) dial(ctx context.Context, deadline time.Time) (*exchangeConn, error) {
	d := net.Dialer{Deadline: deadline}
	c, err := d.DialContext(ctx, "tcp", m.addr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", m.url, err)
	}
	if m.tls != nil {
		c = tls.Client(c, m.tls)
	}
	if err := m.upgrade(c, deadline); err != nil {
		c.Close()
		return nil, err
	}
	return &exchangeConn{Conn: c}, nil
}

func (m *feMember) upgrade(c net.Conn, deadline time.Time) error {
	c.SetDeadline(deadline)
	if _, err := c.Write(m.handshake); err != nil {
		return fmt.Errorf("%s: %w", m.url, err)
	}
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return fmt.Errorf("%s: exchange upgrade: %w", m.url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return backendError(m, resp.StatusCode, body)
	}
	if !strings.EqualFold(resp.Header.Get("Upgrade"), server.ExchangeProtocol) || br.Buffered() > 0 {
		return fmt.Errorf("%s: upgraded to %q, want %s and no byte before the first frame", m.url, resp.Header.Get("Upgrade"), server.ExchangeProtocol)
	}
	return nil
}

// newMember prepares what every exchange with the member at base needs:
// its address, the handshake's bytes, and the cause an exchange that
// outlives RPCTimeout ends with.
func newMember(base string, rpcTimeout time.Duration) (*feMember, error) {
	u, err := url.Parse(base)
	if err != nil {
		return nil, fmt.Errorf("dist: member %q: %v", base, err)
	}
	m := &feMember{
		url:     base,
		addr:    u.Host,
		noReply: fmt.Errorf("%s: no reply within %v: %w", base, rpcTimeout, context.DeadlineExceeded),
	}
	port := "80"
	if u.Scheme == "https" {
		port = "443"
		m.tls = &tls.Config{ServerName: u.Hostname()}
	}
	if u.Port() == "" {
		m.addr = net.JoinHostPort(u.Hostname(), port)
	}
	m.handshake = []byte("POST " + u.EscapedPath() + server.PathExchange + " HTTP/1.1\r\nHost: " + u.Host +
		"\r\nConnection: Upgrade\r\nUpgrade: " + server.ExchangeProtocol + "\r\nContent-Length: 0\r\n\r\n")
	m.healthy.Store(true)
	return m, nil
}

// askGroup gets g's values from some member, failing over across the
// group: healthy members first in round-robin order, then — in case the
// probe's verdicts are stale — the rest. A member that fails is removed
// on the spot and the next one asked from the top: an exchange is one
// frame each way, so a member that dies after accepting it leaves no
// partial state behind. A 4xx aborts the failover (the request is at
// fault). When every member has failed the caller gets a groupError
// wrapping the first failure. reply is the storage the values are read
// into.
func (rd *read) askGroup(g *feGroup, reply []byte) ([]float64, error) {
	n := uint32(len(g.members))
	start := g.rr.Add(1) % n // reduced before any conversion: the cursor wraps
	var small [1]uint64
	tried := small[:] // bit i: member i was asked
	if n > 64 {
		tried = make([]uint64, (n+63)/64)
	}
	var firstErr error
	for pass := 0; pass < 2; pass++ {
		for i := uint32(0); i < n; i++ {
			mi := (start + i) % n
			m := g.members[mi]
			if tried[mi/64]&(1<<(mi%64)) != 0 || (pass == 0 && !m.healthy.Load()) {
				continue
			}
			if err := rd.ctx.Err(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return nil, &groupError{group: g.id, err: firstErr}
			}
			tried[mi/64] |= 1 << (mi % 64)
			vals, err := rd.exchange(m, reply)
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
	size := 8 * rd.table.Len()
	replies := make([]byte, len(groups)*size) // group g's values land in [g*size, (g+1)*size)
	reply := func(g int) []byte { return replies[g*size : g*size : (g+1)*size] }
	var wg sync.WaitGroup
	for _, g := range groups[1:] {
		wg.Add(1)
		go func(g *feGroup) {
			defer wg.Done()
			vals[g.id], errs[g.id] = rd.askGroup(g, reply(g.id))
		}(g)
	}
	vals[0], errs[0] = rd.askGroup(groups[0], reply(0))
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
