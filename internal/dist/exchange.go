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
	"unsafe"

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
// in a pooled server.QueryBuffer — which each group must answer with one
// value per facility of the table. ctx is the client's request, done when
// the client leaves; the read's deadline bounds each exchange's
// connection instead of a context of its own. A read is pooled too
// (reads), with the scatter's storage, so a steady stream of reads
// allocates none of it.
type read struct {
	fe       *Frontend
	ctx      context.Context
	deadline time.Time
	stop     func() bool // unhooks expire from ctx
	expire   func()      // expireConns, as the func value ctx's hook runs
	buf      *server.QueryBuffer
	req      *server.QueryRequest
	table    trajectory.FacilityTable

	// The scatter's storage: by group, the values and the error it
	// brought back and the bytes its reply is read into; then the summed
	// values, and the ranked answer.
	vals    [][]float64
	errs    []error
	replies []byte
	sums    []float64
	ranked  []server.RankedJSON
	wg      sync.WaitGroup

	mu    sync.Mutex
	conns []*exchangeConn // by group: the connection its exchange is on, or nil
}

var reads = sync.Pool{New: func() any { return new(read) }}

// maxPooledRead keeps a read whose storage has grown past it out of the
// pool, as server.QueryBuffer does.
const maxPooledRead = 1 << 20

// newRead takes a read from the pool for the request of ctx, over fe's
// groups, with its deadline and buf; its hook expires its exchanges'
// connections if the client leaves.
func (fe *Frontend) newRead(ctx context.Context, deadline time.Time, buf *server.QueryBuffer, req *server.QueryRequest, table trajectory.FacilityTable) *read {
	rd := reads.Get().(*read)
	if rd.expire == nil {
		rd.expire = rd.expireConns
	}
	rd.fe, rd.ctx, rd.deadline, rd.buf, rd.req, rd.table = fe, ctx, deadline, buf, req, table
	rd.conns = reuse(rd.conns, len(fe.groups))
	rd.stop = context.AfterFunc(ctx, rd.expire)
	return rd
}

// reuse is s's storage holding n zero values, regrown when it is shorter.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// end releases what the read holds, once its answer is written, and
// gives the read back to the pool — unless the client left and
// expireConns may still be running on it.
func (rd *read) end() {
	unhooked := rd.stop()
	rd.buf.Release()
	clear(rd.vals)
	clear(rd.errs)
	rd.fe, rd.ctx, rd.stop, rd.buf, rd.req, rd.table = nil, nil, nil, nil, nil, trajectory.FacilityTable{}
	size := cap(rd.replies) + 8*cap(rd.sums) + int(unsafe.Sizeof(server.RankedJSON{}))*cap(rd.ranked)
	if unhooked && size <= maxPooledRead {
		reads.Put(rd)
	}
}

// err is why the read must ask no member further: its client left, or
// its deadline passed.
func (rd *read) err() error {
	if err := rd.ctx.Err(); err != nil {
		return err
	}
	if !time.Now().Before(rd.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// aLongTimeAgo is the deadline that expires a connection at once.
var aLongTimeAgo = time.Unix(1, 0)

// expireConns runs once the client has left: it expires the connection
// each of the read's exchanges is on, so the exchange ends at once and
// closes it, and the backend, seeing its connection close, cancels the
// frame.
func (rd *read) expireConns() {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	for _, c := range rd.conns {
		if c != nil {
			c.SetDeadline(aLongTimeAgo)
		}
	}
}

// watch records c (nil: none) as the connection group g's exchange is on,
// which expireConns expires; if the client has already left, watch
// expires c itself. A connection is handed back to its pool only once
// nothing records it, so expireConns never touches another read's.
func (rd *read) watch(g int, c *exchangeConn) {
	rd.mu.Lock()
	defer rd.mu.Unlock()
	rd.conns[g] = c
	if c != nil && rd.ctx.Err() != nil {
		c.SetDeadline(aLongTimeAgo)
	}
}

// exchangeConn is an upgraded exchange connection and the number of
// query frames sent on it, which its replies carry as their ordinal.
type exchangeConn struct {
	net.Conn
	asked uint16
}

// exchange asks member m of group g for every facility's value over its
// corpus: the query frame sent on one of the member's exchange
// connections, answered by exactly one values frame of n numbers read
// into reply's storage (server.ReadReply; a reply of any other shape, or
// to another query, is the member's failure, not an answer), or by an
// error frame, judged by backendError.
// The connection's deadline is RPCTimeout or the request's, whichever
// comes first, and a client that leaves expires it at once (watch). A
// connection that fails in any way is closed, never pooled, so a late
// reply is never read as another exchange's; so is one answered 400 or
// 413, after which the backend closes it. One taken from the pool that
// ended before any reply byte came — a member that dropped its idle
// connections, say by restarting — is retried once on a fresh one.
func (rd *read) exchange(g int, m *feMember, reply []byte) ([]float64, error) {
	deadline, expired := time.Now().Add(rd.fe.cfg.RPCTimeout), m.noReply
	if rd.deadline.Before(deadline) {
		deadline, expired = rd.deadline, context.DeadlineExceeded
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
		rd.watch(g, c)
		vals, started, err := rd.roundTrip(c, reply)
		rd.watch(g, nil)
		if err == nil {
			m.answered.Store(int64(rd.fe.since()))
			m.putConn(c)
			rd.fe.exchanges.Add(1)
			rd.fe.exactRPCs.Add(1)
			return vals, nil
		}
		if rejected, ok := err.(*server.ErrorReply); ok {
			// A whole reply leaves the stream in step, but the backend
			// closes the connection after a frame it refuses (400, 413).
			if rejected.Status == http.StatusBadRequest || rejected.Status == http.StatusRequestEntityTooLarge {
				c.Close()
			} else {
				m.putConn(c)
			}
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
// reason the client's request ended, if it has (the client left, and
// expireConns ended the exchange); the exchange's own expiry —
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
			if err := rd.err(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return nil, &groupError{group: g.id, err: firstErr}
			}
			tried[mi/64] |= 1 << (mi % 64)
			vals, err := rd.exchange(g.id, m, reply)
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
			if rd.err() != nil {
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
	rd.vals, rd.errs = reuse(rd.vals, len(groups)), reuse(rd.errs, len(groups))
	if n := len(groups) * 8 * rd.table.Len(); cap(rd.replies) < n {
		rd.replies = make([]byte, n)
	}
	for _, g := range groups[1:] {
		rd.wg.Add(1)
		go func() {
			defer rd.wg.Done()
			rd.ask(g)
		}()
	}
	rd.ask(groups[0])
	rd.wg.Wait()
	for gi, gerr := range rd.errs {
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
	rd.sums = reuse(rd.sums, rd.table.Len())
	for _, vs := range rd.vals {
		for i, v := range vs {
			rd.sums[i] += v
		}
	}
	return rd.sums, missing, nil
}

// ask records group g's values, or why it has none, reading its reply
// into bytes [g*size, (g+1)*size) of the read's storage, where size is
// 8 bytes a facility.
func (rd *read) ask(g *feGroup) {
	size := 8 * rd.table.Len()
	rd.vals[g.id], rd.errs[g.id] = rd.askGroup(g, rd.replies[g.id*size:g.id*size:(g.id+1)*size])
}
