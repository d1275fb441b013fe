package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/server"
	"github.com/trajcover/trajcover/internal/tenant"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// FrontendConfig tunes the scatter-gather frontend. The zero value
// probes every 250ms, gives each backend 2s to answer, serves requests
// under a 2s default deadline capped at 30s, and hints 1s retries.
type FrontendConfig struct {
	// Groups is the shard-group map (ParseMap); at least one group.
	Groups []Group
	// RPCTimeout bounds one attempt at a read's exchange with one backend
	// — request sent, whole reply read — and one health probe (<= 0: 2s).
	RPCTimeout time.Duration
	// DefaultTimeout is the per-request deadline when the request names
	// none (<= 0: 2s); MaxTimeout caps timeout_ms (<= 0: 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// ProbeInterval is the health-probe period (<= 0: 250ms).
	ProbeInterval time.Duration
	// MaxBodyBytes caps request bodies (<= 0: 8 MiB).
	MaxBodyBytes int64
	// Client is the backend HTTP client (nil: a client on a transport of
	// the frontend's own, closed by Close).
	Client *http.Client
	// Logf, when non-nil, receives operational events (member removal
	// and readmission).
	Logf func(format string, args ...any)
}

func (c FrontendConfig) withDefaults() FrontendConfig {
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 2 * time.Second
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// idleConnsPerBackend is how many keep-alive connections the frontend's
// own transport holds per backend. Every concurrent read has one exchange
// in flight per group, and http.DefaultTransport keeps only two idle per
// host, closing and redialling the rest after every read.
const idleConnsPerBackend = 64

// feMember is one backend process. healthy is the probe's verdict,
// flipped false eagerly by any failed exchange or write (removal) and true again
// only by a successful probe (readmission). exchangeURL and noReply are
// what every exchange with it needs, built once: its /v1/exchange URL and
// the cause an exchange that outlives RPCTimeout ends with.
type feMember struct {
	url         string
	exchangeURL string
	noReply     error
	healthy     atomic.Bool
}

// feGroup is one shard group's members; members[0] is the primary.
type feGroup struct {
	id      int
	members []*feMember
	rr      atomic.Uint32 // read round-robin cursor
}

// Frontend owns the shard-group map and serves the tqserve wire API by
// scattering over the groups. Construct with NewFrontend, serve
// Handler, stop with Close.
type Frontend struct {
	cfg       FrontendConfig
	transport *http.Transport // non-nil when the frontend made its own client
	groups    []*feGroup
	mux       *http.ServeMux
	draining  atomic.Bool
	start     time.Time
	probeStop chan struct{}
	probeDone chan struct{}
	closeOnce sync.Once

	requests  atomic.Uint64
	errs      atomic.Uint64
	partials  atomic.Uint64
	failovers atomic.Uint64
	exchanges atomic.Uint64 // exchanges a backend answered 200
	exactRPCs atomic.Uint64 // values frames received whole
}

// NewFrontend builds a frontend over the group map and starts its
// health-probe loop. Members start healthy (optimistic: the first
// failed RPC or probe removes them).
func NewFrontend(cfg FrontendConfig) (*Frontend, error) {
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("dist: frontend needs at least one shard group")
	}
	cfg = cfg.withDefaults()
	fe := &Frontend{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		start:     time.Now(),
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	if cfg.Client == nil {
		fe.transport = http.DefaultTransport.(*http.Transport).Clone()
		fe.transport.MaxIdleConns = 0 // bounded per host instead
		fe.transport.MaxIdleConnsPerHost = idleConnsPerBackend
		fe.cfg.Client = &http.Client{Transport: fe.transport}
	}
	for gi, g := range cfg.Groups {
		if len(g.Members) == 0 {
			return nil, fmt.Errorf("dist: group %d is empty", gi)
		}
		fg := &feGroup{id: gi}
		for _, m := range g.Members {
			fm := &feMember{
				url:         m,
				exchangeURL: m + server.PathExchange,
				noReply:     fmt.Errorf("%s: no reply within %v: %w", m, cfg.RPCTimeout, context.DeadlineExceeded),
			}
			fm.healthy.Store(true)
			fg.members = append(fg.members, fm)
		}
		fe.groups = append(fe.groups, fg)
	}
	fe.mux.HandleFunc(server.PathTopK, fe.requirePost(fe.handleTopK))
	fe.mux.HandleFunc(server.PathServiceValues, fe.requirePost(fe.handleServiceValues))
	fe.mux.HandleFunc(server.PathInsert, fe.requirePost(func(w http.ResponseWriter, r *http.Request) {
		fe.handleWrite(w, r, server.PathInsert)
	}))
	fe.mux.HandleFunc(server.PathDelete, fe.requirePost(func(w http.ResponseWriter, r *http.Request) {
		fe.handleWrite(w, r, server.PathDelete)
	}))
	fe.mux.HandleFunc(server.PathHealth, fe.handleHealth)
	fe.mux.HandleFunc(server.PathStats, fe.handleStats)
	go fe.probeLoop()
	return fe, nil
}

// Handler returns the HTTP handler serving the frontend API.
func (fe *Frontend) Handler() http.Handler { return fe.mux }

// BeginDrain flips the frontend into draining: /healthz answers 503 and
// new work is rejected with 503 + Retry-After. Idempotent.
func (fe *Frontend) BeginDrain() { fe.draining.Store(true) }

// Close stops the health-probe loop and drops the frontend's own idle
// backend connections. Idempotent.
func (fe *Frontend) Close() {
	fe.closeOnce.Do(func() { close(fe.probeStop) })
	<-fe.probeDone
	if fe.transport != nil {
		fe.transport.CloseIdleConnections()
	}
}

func (fe *Frontend) logf(format string, args ...any) {
	if fe.cfg.Logf != nil {
		fe.cfg.Logf(format, args...)
	}
}

// probeLoop polls every member's /healthz. Any 200 — "ok" or
// "degraded" — readmits: a degraded backend still serves reads, and
// writes answer their own 503s. Non-200 or transport failure removes.
func (fe *Frontend) probeLoop() {
	defer close(fe.probeDone)
	tick := time.NewTicker(fe.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-fe.probeStop:
			return
		case <-tick.C:
		}
		for _, g := range fe.groups {
			for _, m := range g.members {
				up := fe.probe(m)
				if was := m.healthy.Swap(up); was != up {
					if up {
						fe.logf("dist: readmitted %s (group %d)", m.url, g.id)
					} else {
						fe.logf("dist: removed %s (group %d)", m.url, g.id)
					}
				}
			}
		}
	}
}

func (fe *Frontend) probe(m *feMember) bool {
	ctx, cancel := context.WithTimeout(context.Background(), fe.cfg.RPCTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.url+server.PathHealth, nil)
	if err != nil {
		return false
	}
	resp, err := fe.cfg.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// permanentError is a backend 4xx: the request itself is at fault, so
// failing over to another member would only repeat it. Relayed as-is.
type permanentError struct {
	status int
	body   []byte
}

func (e *permanentError) Error() string { return fmt.Sprintf("backend %d: %s", e.status, e.body) }

// groupError means every member of one shard group failed a read.
type groupError struct {
	group int
	err   error
}

func (e *groupError) Error() string {
	return fmt.Sprintf("shard group %d unavailable: %v", e.group, e.err)
}
func (e *groupError) Unwrap() error { return e.err }

func (fe *Frontend) requirePost(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, server.ErrorResponse{Error: "use POST"})
			return
		}
		h(w, r)
	}
}

// admit gates a handler on drain state and reads the capped body; a
// false return means admit already answered.
func (fe *Frontend) admit(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	fe.requests.Add(1)
	if fe.draining.Load() {
		fe.errs.Add(1)
		fe.rejectRetryable(w, http.StatusServiceUnavailable, "frontend draining")
		return nil, false
	}
	body, err := server.ReadBody(w, r, fe.cfg.MaxBodyBytes)
	if err != nil {
		fe.rejectBody(w, err)
		return nil, false
	}
	return body, true
}

// rejectBody answers a request body that could not be taken: 413 past
// MaxBodyBytes, closing the connection on the unread rest, 400 for
// anything else.
func (fe *Frontend) rejectBody(w http.ResponseWriter, err error) {
	fe.errs.Add(1)
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
		server.CloseAfterAnswer(w)
	}
	writeJSON(w, status, server.ErrorResponse{Error: err.Error()})
}

func (fe *Frontend) rejectRetryable(w http.ResponseWriter, status int, msg string) {
	w.Header()["Retry-After"] = retryAfterSeconds
	writeJSON(w, status, server.ErrorResponse{Error: msg})
}

func (fe *Frontend) requestTimeout(timeoutMS int64) time.Duration {
	d := fe.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > fe.cfg.MaxTimeout {
			d = fe.cfg.MaxTimeout
		}
	}
	return d
}

// failRead answers a failed scatter/merge: an expired request deadline
// is 504 (mirroring the backends' errResponse contract), anything else
// is a transient 503 with Retry-After — the group map has no healthy
// owner for part of the corpus right now.
func (fe *Frontend) failRead(w http.ResponseWriter, ctx context.Context, err error) {
	fe.errs.Add(1)
	var perm *permanentError
	if errors.As(err, &perm) {
		// Relay the backend's own verdict on the request.
		writeRaw(w, perm.status, perm.body)
		return
	}
	// 504 only on genuine deadline expiry. A lost group is a transient
	// backend failure, not a timeout — it must fall through to 503 +
	// Retry-After so clients retry.
	if errors.Is(ctx.Err(), context.DeadlineExceeded) || errors.Is(err, context.DeadlineExceeded) {
		writeJSON(w, http.StatusGatewayTimeout, server.ErrorResponse{Error: err.Error()})
		return
	}
	fe.rejectRetryable(w, http.StatusServiceUnavailable, err.Error())
}

// PartialTopKResponse is the /v1/topk?partial=1 body when shard groups
// were missing: the exact top k over the surviving groups' corpus — a
// TopKResponse, its fields first — plus the flag and the missing group
// indexes. With no groups missing the plain TopKResponse is served
// byte-identically to a backend's.
type PartialTopKResponse struct {
	server.TopKResponse
	Partial       bool  `json:"partial"`
	MissingGroups []int `json:"missing_groups"`
}

// PartialValuesResponse is the /v1/servicevalues?partial=1 counterpart.
type PartialValuesResponse struct {
	server.ValuesResponse
	Partial       bool  `json:"partial"`
	MissingGroups []int `json:"missing_groups"`
}

// singleTenant rejects a request that names a tenant other than the
// default one, in the X-Tenant header or the body: the tier's backends
// are single-tenant servers, and answering from the default tenant's
// corpus would be answering a different question.
func singleTenant(r *http.Request, bodyTenant string) error {
	for _, id := range [2]string{r.Header.Get("X-Tenant"), bodyTenant} {
		if id != "" && id != tenant.DefaultID {
			return fmt.Errorf("the distributed tier is single-tenant: no tenant %q here (name %q or none)", id, tenant.DefaultID)
		}
	}
	return nil
}

// beginRead is what /v1/topk and /v1/servicevalues share up to the
// merge: admission, decode into pooled storage, the tenant check, the
// request deadline, and the query frame every group is sent — built once
// from the decoded table, carrying the deadline's budget so a backend
// gives the exchange what the client gave the request. A false return
// means the request was already answered; otherwise the caller ends the
// read once its answer is written.
func (fe *Frontend) beginRead(w http.ResponseWriter, r *http.Request, needK bool) (*read, bool) {
	fe.requests.Add(1)
	if fe.draining.Load() {
		fe.errs.Add(1)
		fe.rejectRetryable(w, http.StatusServiceUnavailable, "frontend draining")
		return nil, false
	}
	buf := server.AcquireQueryBuffer()
	if err := buf.ReadBody(w, r, fe.cfg.MaxBodyBytes); err != nil {
		buf.Release()
		fe.rejectBody(w, err)
		return nil, false
	}
	req, table, q, err := buf.Decode(buf.Body(), needK)
	if err == nil {
		err = singleTenant(r, req.Tenant)
	}
	if err != nil {
		buf.Release()
		fe.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
		return nil, false
	}
	size := server.QueryFrameLen(table)
	if int64(size) > fe.cfg.MaxBodyBytes {
		buf.Release()
		fe.errs.Add(1)
		writeJSON(w, http.StatusRequestEntityTooLarge, server.ErrorResponse{Error: fmt.Sprintf("request takes %d bytes between frontend and backend, over the %d-byte limit", size, fe.cfg.MaxBodyBytes)})
		return nil, false
	}
	timeout := fe.requestTimeout(req.TimeoutMS)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	frame := server.AppendQueryFrame(make([]byte, 0, size), table, server.QueryParams{
		Query: q, Workers: req.Workers, TimeoutMS: max(timeout.Milliseconds(), 1),
	})
	return &read{fe: fe, ctx: ctx, cancel: cancel, buf: buf, req: req, table: table, frame: frame}, true
}

// partial reports whether a read asked for ?partial=1.
func partial(r *http.Request) bool {
	return r.URL.RawQuery != "" && r.URL.Query().Get("partial") == "1"
}

func (fe *Frontend) handleTopK(w http.ResponseWriter, r *http.Request) {
	rd, ok := fe.beginRead(w, r, true)
	if !ok {
		return
	}
	defer rd.end()
	sums, missing, err := rd.serviceValues(partial(r))
	if err != nil {
		fe.failRead(w, rd.ctx, err)
		return
	}
	res := rank(rd.table, sums, rd.req.K)
	if len(missing) > 0 {
		fe.partials.Add(1)
		writeJSON(w, http.StatusOK, PartialTopKResponse{TopKResponse: server.TopKResponse{Results: res}, Partial: true, MissingGroups: missing})
		return
	}
	rd.buf.Answer = server.AppendRankedResponse(rd.buf.Answer[:0], res)
	writeRaw(w, http.StatusOK, rd.buf.Answer)
}

// rank is the in-process sharded top-k's sort-and-cut (query.Results),
// with groups for shards, over the facilities' IDs: the summed exact
// values in query.CompareRanked's order, cut at k (the decoder has
// refused k < 1).
func rank(t trajectory.FacilityTable, sums []float64, k int) []server.RankedJSON {
	res := make([]server.RankedJSON, t.Len())
	for i := range res {
		res[i] = server.RankedJSON{ID: uint32(t.ID(i)), Service: sums[i]}
	}
	slices.SortFunc(res, func(a, b server.RankedJSON) int {
		return query.CompareRanked(a.Service, trajectory.ID(a.ID), b.Service, trajectory.ID(b.ID))
	})
	return res[:min(k, len(res))]
}

func (fe *Frontend) handleServiceValues(w http.ResponseWriter, r *http.Request) {
	rd, ok := fe.beginRead(w, r, false)
	if !ok {
		return
	}
	defer rd.end()
	sums, missing, err := rd.serviceValues(partial(r))
	if err != nil {
		fe.failRead(w, rd.ctx, err)
		return
	}
	if len(missing) > 0 {
		fe.partials.Add(1)
		writeJSON(w, http.StatusOK, PartialValuesResponse{ValuesResponse: server.ValuesResponse{Values: sums}, Partial: true, MissingGroups: missing})
		return
	}
	rd.buf.Answer = server.AppendValuesResponse(rd.buf.Answer[:0], sums)
	writeRaw(w, http.StatusOK, rd.buf.Answer)
}

// handleWrite forwards an insert/delete to its owner group's primary —
// never a replica — and relays the primary's verdict verbatim (status,
// body, and Retry-After, so the backends' degraded-mode contract
// passes through). An unreachable primary is a transient 503: replicas
// cannot accept the write, and the client retries after the hint.
func (fe *Frontend) handleWrite(w http.ResponseWriter, r *http.Request, path string) {
	body, ok := fe.admit(w, r)
	if !ok {
		return
	}
	var id uint32
	var timeoutMS int64
	var bodyTenant string
	var err error
	if path == server.PathInsert {
		var req *server.InsertRequest
		if req, _, err = server.DecodeInsertRequest(body); err == nil {
			id, timeoutMS, bodyTenant = req.ID, req.TimeoutMS, req.Tenant
		}
	} else {
		var req *server.DeleteRequest
		if req, err = server.DecodeDeleteRequest(body); err == nil {
			id, timeoutMS, bodyTenant = req.ID, req.TimeoutMS, req.Tenant
		}
	}
	if err == nil {
		err = singleTenant(r, bodyTenant)
	}
	if err != nil {
		fe.errs.Add(1)
		writeJSON(w, http.StatusBadRequest, server.ErrorResponse{Error: err.Error()})
		return
	}
	g := fe.groups[RouteID(id, len(fe.groups))]
	primary := g.members[0]

	ctx, cancel := context.WithTimeout(r.Context(), fe.requestTimeout(timeoutMS))
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, primary.url+path, bytes.NewReader(body))
	if err != nil {
		fe.errs.Add(1)
		writeJSON(w, http.StatusInternalServerError, server.ErrorResponse{Error: err.Error()})
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := fe.cfg.Client.Do(req)
	if err != nil {
		fe.errs.Add(1)
		if ctx.Err() != nil { // our own deadline (or the client left), not the primary's failure
			writeJSON(w, http.StatusGatewayTimeout, server.ErrorResponse{Error: ctx.Err().Error()})
			return
		}
		primary.healthy.Store(false)
		fe.rejectRetryable(w, http.StatusServiceUnavailable, fmt.Sprintf("shard group %d primary unavailable: %v", g.id, err))
		return
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		fe.errs.Add(1)
		fe.rejectRetryable(w, http.StatusServiceUnavailable, fmt.Sprintf("shard group %d primary: %v", g.id, err))
		return
	}
	if resp.StatusCode >= 400 {
		fe.errs.Add(1)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	writeRaw(w, resp.StatusCode, data)
}

// GroupHealth is one shard group's view in /healthz and /statsz.
type GroupHealth struct {
	Primary string         `json:"primary"`
	Healthy int            `json:"healthy"`
	Members []MemberHealth `json:"members"`
}

// MemberHealth is one backend's probe verdict.
type MemberHealth struct {
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
	Primary bool   `json:"primary"`
}

// FrontendHealth is the frontend's /healthz document.
type FrontendHealth struct {
	Status string        `json:"status"`
	Groups []GroupHealth `json:"groups"`
}

func (fe *Frontend) groupHealth() ([]GroupHealth, bool) {
	all := true
	out := make([]GroupHealth, len(fe.groups))
	for gi, g := range fe.groups {
		gh := GroupHealth{Primary: g.members[0].url}
		for mi, m := range g.members {
			up := m.healthy.Load()
			if up {
				gh.Healthy++
			} else {
				all = false
			}
			gh.Members = append(gh.Members, MemberHealth{URL: m.url, Healthy: up, Primary: mi == 0})
		}
		out[gi] = gh
	}
	return out, all
}

func (fe *Frontend) handleHealth(w http.ResponseWriter, r *http.Request) {
	if fe.draining.Load() {
		w.Header().Set("Retry-After", server.RetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, FrontendHealth{Status: "draining"})
		return
	}
	groups, all := fe.groupHealth()
	status := "ok"
	if !all {
		// Degraded, not down: reads fail over within groups and writes
		// answer their own errors, so the frontend keeps serving.
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, FrontendHealth{Status: status, Groups: groups})
}

// FrontendStats is the frontend's /statsz document. A read costs one
// exchange per group: Exchanges counts those a backend answered 200 (more
// than one per group only after a failover), ExactRPCs the values frames
// that came back whole. BoundRPCs and PrunedFacilities always read 0 — no
// read asks for a bound, so none prunes; the fields remain because the
// repository benchmark reads them (ROADMAP item 1b drops both).
type FrontendStats struct {
	UptimeSeconds    float64       `json:"uptime_seconds"`
	Groups           []GroupHealth `json:"groups"`
	Requests         uint64        `json:"requests"`
	Errors           uint64        `json:"errors"`
	PartialResponses uint64        `json:"partial_responses"`
	Failovers        uint64        `json:"failovers"`
	Exchanges        uint64        `json:"exchanges"`
	BoundRPCs        uint64        `json:"bound_rpcs"`
	ExactRPCs        uint64        `json:"exact_rpcs"`
	PrunedFacilities uint64        `json:"pruned_facilities"`
}

// Stats snapshots the frontend counters — the /statsz document.
func (fe *Frontend) Stats() FrontendStats {
	groups, _ := fe.groupHealth()
	return FrontendStats{
		UptimeSeconds:    time.Since(fe.start).Seconds(),
		Groups:           groups,
		Requests:         fe.requests.Load(),
		Errors:           fe.errs.Load(),
		PartialResponses: fe.partials.Load(),
		Failovers:        fe.failovers.Load(),
		Exchanges:        fe.exchanges.Load(),
		ExactRPCs:        fe.exactRPCs.Load(),
	}
}

func (fe *Frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, fe.Stats())
}

// Header values assigned whole, without Header.Set's allocation; see
// internal/server's.
var (
	jsonContentType   = []string{"application/json"}
	retryAfterSeconds = []string{server.RetryAfter}
)

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeRaw(w, status, mustMarshal(v))
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("dist: marshal: %v", err))
	}
	return b
}
