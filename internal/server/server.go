// Package server is the long-running HTTP (JSON) front end over a live
// trajectory-coverage index — the layer that turns the batch executor
// into a system with an SLO. cmd/tqserve is its CLI wrapper.
//
// The serving core is slot admission: every /v1/* request is decoded and
// validated in its HTTP handler, which then runs the request's work
// itself once it holds one of Config.Workers slots. A handler that finds
// every slot taken waits for one, at most Config.QueueDepth of them at a
// time; past that it fails fast — 429 with a Retry-After hint — instead
// of letting latency collapse under overload. Each request carries a
// deadline (the server default, or the request's timeout_ms capped at
// Config.MaxTimeout): a waiter whose deadline passes answers 504 without
// running, and a running read gets it as a context.Context, so the
// cancellation-aware query executor stops at its next facility and
// answers 504. A running write is not abandoned: it answers with what it
// did. /healthz and /statsz serve readiness and the per-endpoint
// latency/queue counters; /v1/snapshot streams a TQLIVE02 checkpoint
// without stopping writes.
//
// Endpoints:
//
//	POST /v1/topk           {"facilities":[{"id":1,"stops":[[x,y],...]}],"k":8,"scenario":"binary","psi":300}
//	POST /v1/servicevalues  {"facilities":[...],"scenario":"binary","psi":300}
//	POST /v1/exchange       upgrade to tqexchange/1, then query frame -> values frame, one per (frontend read, shard group) (internal; exchange.go)
//	POST /v1/insert         {"id":9001,"points":[[x,y],[x,y]]}
//	POST /v1/delete         {"id":9001}
//	POST /v1/compact        {}
//	GET  /v1/snapshot       -> TQLIVE02 stream (+X-Repl-Boot/X-Repl-Seq when replicating)
//	POST /v1/checkpoint     {} (WAL-backed index only)
//	GET  /v1/changes        ?after=N&boot=ID&wait_ms=MS -> replication tail (Config.ReplLog)
//	GET  /healthz, /statsz
//
// With a result cache (Config.ResultCacheBytes) the two query endpoints
// answer repeats from it: answers key on a canonical hash of the decoded
// request, the tenant and the index version, and a byte-identical repeat
// finds that key through an alias on its raw bytes without being decoded
// at all (serveRead).
//
// On a WAL-backed index (tqserve -wal-dir), /v1/snapshot streams the
// checkpoint it just made durable on disk — so every snapshot download
// also truncates the WAL — and /v1/checkpoint runs the same checkpoint
// without streaming the bytes. /statsz gains a "wal" section with
// append/fsync counters and the time since the last checkpoint.
//
// Multi-tenancy: a server built with NewMulti serves one independent
// live index per tenant out of a trajcover.TenantRegistry. Requests
// name their tenant with the X-Tenant header or the "tenant" JSON field
// (both set and disagreeing is a 400); absent both, the request belongs
// to the "default" tenant, so single-tenant clients keep working
// unchanged. Reads of unknown tenants are 404; writes create the tenant
// lazily (its own WAL directory under the registry root); invalid
// tenant IDs are 400 before any state can exist. Ahead of the global
// slots, each tenant passes a per-tenant admission gate —
// max_inflight, max_queue, and a writes_per_sec token bucket, from a
// hot-reloadable overrides document (SetOverrides) — and over-quota
// requests get 429 with Retry-After and a per-tenant reject counter in
// the /statsz "tenants" section. X-Tenant also selects the tenant of
// /v1/snapshot, /v1/checkpoint, and /v1/compact.
//
// Shutdown protocol: BeginDrain (new work → 503, health → draining),
// then stop the HTTP listener (http.Server.Shutdown waits for in-flight
// handlers, each of which runs its own work to the end or answers 504 at
// its deadline), then Close, which turns any straggler away with 503,
// closes the upgraded exchange connections the HTTP layer no longer
// tracks, and returns once no admitted work and no exchange connection's
// loop is still running. The only goroutine the server starts is each
// exchange connection's frame reader, which ends with its connection, so
// nothing of it outlives the drain.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/replog"
	"github.com/trajcover/trajcover/internal/rescache"
	"github.com/trajcover/trajcover/internal/tenant"
)

// Config tunes the serving core. The zero value serves with GOMAXPROCS
// slots, at most 64 handlers waiting for one, a 2s default deadline
// capped at 30s, 8 MiB request bodies, and a 1s Retry-After hint.
type Config struct {
	// Workers is how many requests run at once: the number of slots a
	// handler must hold to run its work (<= 0: GOMAXPROCS). Snapshot
	// streams, NDJSON streams and the replication tail run without one.
	Workers int
	// QueueDepth is how many handlers may wait for a slot before new ones
	// are rejected with 429 (<= 0: 64).
	QueueDepth int
	// DefaultTimeout is the per-request deadline when the request names
	// none (<= 0: 2s).
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested deadlines (<= 0: 30s).
	MaxTimeout time.Duration
	// MaxBodyBytes caps request bodies (<= 0: 8 MiB).
	MaxBodyBytes int64
	// ResultCacheBytes bounds the epoch-keyed result cache for /v1/topk
	// and /v1/servicevalues answers (<= 0: disabled).
	// Entries key on the request's canonical hash, the tenant, and the
	// index's write version, so a cached answer is always what the index
	// would answer right now — writes invalidate by construction, not by
	// purging. The same budget holds the raw-byte aliases (~170 B each)
	// that let a byte-identical repeat find its entry without decoding.
	ResultCacheBytes int64
	// ReplLog, when non-nil, turns on primary-side replication on a
	// single-tenant server: every acknowledged insert/delete is appended
	// to the log in the order it took effect on the index, GET
	// /v1/changes serves ordered suffixes to replicas (long-polling on
	// wait_ms), and /v1/snapshot stamps X-Repl-Boot / X-Repl-Seq so a
	// bootstrapping replica knows which log suffix follows the stream it
	// is downloading. Ignored by multi-tenant servers.
	ReplLog *replog.Log
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 2 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	return c
}

// response is a computed answer, written once the work has given back
// its slot: a JSON body, or an exchange's values frame. retryAfter marks
// a transient rejection that must carry a Retry-After header.
type response struct {
	status     int
	body       []byte
	retryAfter bool
}

// Header values the answers assign whole: w.Header()[key] = value costs
// no allocation, where Header.Set makes a new one-string slice. net/http
// copies them when it writes the header and never writes into them.
var (
	jsonContentType   = []string{"application/json"}
	retryAfterSeconds = []string{RetryAfter}
)

// endpointStats is one endpoint's counters, updated with atomics on the
// serving path and snapshotted by /statsz. `observed` counts only the
// requests that reached a timed terminal path (admitted work and
// snapshot streams) and is the latency mean's denominator — decode and
// drain rejections bump `requests`/`errors` without skewing the mean.
type endpointStats struct {
	requests atomic.Uint64
	rejected atomic.Uint64
	errors   atomic.Uint64
	deadline atomic.Uint64
	observed atomic.Uint64
	totalNs  atomic.Int64
	maxNs    atomic.Int64
}

func (e *endpointStats) observe(d time.Duration) {
	ns := d.Nanoseconds()
	e.observed.Add(1)
	e.totalNs.Add(ns)
	for {
		cur := e.maxNs.Load()
		if ns <= cur || e.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// EndpointSnapshot is one endpoint's counters as served by /statsz.
// MeanMillis/MaxMillis are over Observed (requests that waited for or
// held a slot, and snapshot streams), not Requests, so decode rejections
// cannot dilute the served-latency figures.
type EndpointSnapshot struct {
	Requests         uint64  `json:"requests"`
	Observed         uint64  `json:"observed"`
	Rejected         uint64  `json:"rejected"`
	Errors           uint64  `json:"errors"`
	DeadlineExceeded uint64  `json:"deadline_exceeded"`
	MeanMillis       float64 `json:"mean_ms"`
	MaxMillis        float64 `json:"max_ms"`
}

func (e *endpointStats) snapshot() EndpointSnapshot {
	s := EndpointSnapshot{
		Requests:         e.requests.Load(),
		Observed:         e.observed.Load(),
		Rejected:         e.rejected.Load(),
		Errors:           e.errors.Load(),
		DeadlineExceeded: e.deadline.Load(),
		MaxMillis:        float64(e.maxNs.Load()) / 1e6,
	}
	if s.Observed > 0 {
		s.MeanMillis = float64(e.totalNs.Load()) / 1e6 / float64(s.Observed)
	}
	return s
}

// IndexSnapshot is the served index's state as reported by /statsz.
// Health carries the degraded-mode state machine: cause and entry time
// while degraded, monotone Entries/Exits transition counters, and the
// recovery probe's attempt/success counts.
type IndexSnapshot struct {
	Len          int                        `json:"len"`
	Shards       int                        `json:"shards"`
	PerShard     []trajcover.LiveShardStats `json:"per_shard"`
	RebuildError string                     `json:"rebuild_error,omitempty"`
	Health       *trajcover.Health          `json:"health,omitempty"`
}

// ProcessSnapshot is the process-level /statsz section: the figures an
// operator correlates with degraded windows and leak reports. RSSBytes
// is the OS-visible resident set from /proc/self/statm (0 where that
// file is unavailable); alongside HeapInuseBytes it makes the memory
// tiers legible — a mapped snapshot shows up as the gap between a
// large RSS and a small heap, and memory pressure evicts it from the
// RSS without the heap moving.
type ProcessSnapshot struct {
	Goroutines     int     `json:"goroutines"`
	UptimeSeconds  float64 `json:"uptime_seconds"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	RSSBytes       uint64  `json:"rss_bytes"`
}

// readRSSBytes reads the resident set size from /proc/self/statm
// (second field, pages). Returns 0 on platforms without procfs.
func readRSSBytes() uint64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// WALSnapshot is the durability layer's state as reported by /statsz
// (present only for WAL-backed indexes).
type WALSnapshot struct {
	Records                uint64  `json:"records"`
	Segments               int     `json:"segments"`
	Bytes                  int64   `json:"bytes"`
	Fsyncs                 uint64  `json:"fsyncs"`
	MaxFsyncMillis         float64 `json:"max_fsync_ms"`
	SinceCheckpointSeconds float64 `json:"since_checkpoint_seconds"`
}

// TenantSnapshot is one tenant's /statsz section: its effective limits
// and its admission-gate counters (including per-reason rejections).
type TenantSnapshot struct {
	Limits tenant.Limits       `json:"limits"`
	Gate   tenant.GateSnapshot `json:"gate"`
}

// Stats is the /statsz document. Index and WAL describe the default
// tenant's index (absent when no default tenant exists); Tenants holds
// one section per tenant that has sent traffic this session;
// DegradedTenants maps each currently-degraded tenant to its cause.
type Stats struct {
	UptimeSeconds   float64                        `json:"uptime_seconds"`
	Workers         int                            `json:"workers"`
	QueueCap        int                            `json:"queue_cap"`
	QueueDepth      int                            `json:"queue_depth"`
	Draining        bool                           `json:"draining"`
	Process         ProcessSnapshot                `json:"process"`
	Endpoints       map[string]EndpointSnapshot    `json:"endpoints"`
	Index           IndexSnapshot                  `json:"index"`
	WAL             *WALSnapshot                   `json:"wal,omitempty"`
	Tenants         map[string]TenantSnapshot      `json:"tenants,omitempty"`
	DegradedTenants map[string]string              `json:"degraded_tenants,omitempty"`
	Registry        *trajcover.TenantRegistryStats `json:"registry,omitempty"`
	OverridesInfo   *OverridesSnapshot             `json:"overrides,omitempty"`
	ResultCache     *rescache.Snapshot             `json:"result_cache,omitempty"`
	Replication     *replog.Stats                  `json:"replication,omitempty"`
}

// OverridesSnapshot reports the overrides reload counters /statsz shows
// (wired by cmd/tqserve from the watcher).
type OverridesSnapshot struct {
	Reloads uint64 `json:"reloads"`
	Fails   uint64 `json:"fails"`
}

// Server is the HTTP front end over a live sharded index. Each request
// runs on its own handler goroutine, at most Config.Workers of them at
// once, under slot admission (acquireSlot). Construct with New, expose
// Handler over any http.Server, and shut down with BeginDrain → HTTP
// shutdown → Close.
type Server struct {
	cfg Config
	// Exactly one of idx/reg is live: idx is the single-tenant mode
	// (New; every request belongs to the default tenant), reg the
	// multi-tenant mode (NewMulti). idx is an atomic pointer so a
	// replica can swap in a freshly bootstrapped index (SetIndex) when
	// its primary restarts, without dropping the listener.
	idx atomic.Pointer[trajcover.Index]
	reg *trajcover.TenantRegistry

	// repl is the primary-side replication log (Config.ReplLog;
	// single-tenant only). replmu serializes each (index write, log
	// append) pair so the log order is exactly the order writes took
	// effect — without it two racing writes to the same ID could
	// replicate in the opposite order they applied.
	repl   *replog.Log
	replmu sync.Mutex

	// cache is the epoch-keyed result cache (nil when disabled; a nil
	// *rescache.Cache is a valid always-miss cache).
	cache *rescache.Cache

	// Slot admission. A request runs while it holds one of the slots'
	// Workers tokens; waiting counts the handlers blocked for one. running
	// counts admitted requests — waiting or running — so that Close can
	// wait them out: amu makes "not closed yet, so count me" atomic with
	// Close's "closed, so wait for everyone counted", and closing wakes
	// the waiters to answer 503.
	slots     chan struct{}
	waiting   atomic.Int64
	amu       sync.RWMutex
	closed    bool
	closing   chan struct{}
	conns     map[net.Conn]struct{} // upgraded exchange connections; under amu
	running   sync.WaitGroup
	closeOnce sync.Once
	draining  atomic.Bool
	start     time.Time

	mux   *http.ServeMux
	stats map[string]*endpointStats // fixed key set; read-only after New

	// Per-tenant admission state. ovr is the current overrides document
	// (swapped whole on reload — never partially applied); gates holds
	// one Gate per tenant that has sent traffic. now is the gates' clock
	// (nil: time.Now), injectable by tests to pin the write-rate bucket.
	ovr       atomic.Pointer[tenant.Overrides]
	gmu       sync.Mutex
	gates     map[string]*tenant.Gate
	now       func() time.Time
	ovrStatus func() OverridesSnapshot
}

// Endpoint paths, also the /statsz counter keys.
const (
	PathTopK          = "/v1/topk"
	PathServiceValues = "/v1/servicevalues"
	PathExchange      = "/v1/exchange"
	PathInsert        = "/v1/insert"
	PathDelete        = "/v1/delete"
	PathCompact       = "/v1/compact"
	PathSnapshot      = "/v1/snapshot"
	PathCheckpoint    = "/v1/checkpoint"
	PathChanges       = "/v1/changes"
	PathHealth        = "/healthz"
	PathStats         = "/statsz"
)

// New builds a single-tenant Server over idx: every request (whatever
// tenant it names, as long as it is the default) is served from idx.
func New(idx *trajcover.Index, cfg Config) *Server {
	return newServer(idx, nil, cfg)
}

// NewMulti builds a multi-tenant Server over a registry: each request's
// tenant resolves to its own live index, lazily created on first write.
// The registry is the caller's (close it after Close).
func NewMulti(reg *trajcover.TenantRegistry, cfg Config) *Server {
	return newServer(nil, reg, cfg)
}

func newServer(idx *trajcover.Index, reg *trajcover.TenantRegistry, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		reg:     reg,
		slots:   make(chan struct{}, cfg.Workers),
		closing: make(chan struct{}),
		cache:   rescache.New(cfg.ResultCacheBytes),
		start:   time.Now(),
		mux:     http.NewServeMux(),
		stats:   map[string]*endpointStats{},
		gates:   map[string]*tenant.Gate{},
		conns:   map[net.Conn]struct{}{},
	}
	if idx != nil {
		s.idx.Store(idx)
	}
	if reg == nil {
		s.repl = cfg.ReplLog
	}
	for _, p := range []string{PathTopK, PathServiceValues, PathExchange, PathInsert, PathDelete, PathCompact, PathSnapshot, PathCheckpoint, PathChanges} {
		s.stats[p] = &endpointStats{}
	}
	s.mux.HandleFunc(PathTopK, s.requirePost(s.handleTopK))
	s.mux.HandleFunc(PathServiceValues, s.requirePost(s.handleServiceValues))
	s.mux.HandleFunc(PathExchange, s.requirePost(s.handleExchange))
	s.mux.HandleFunc(PathInsert, s.requirePost(s.handleInsert))
	s.mux.HandleFunc(PathDelete, s.requirePost(s.handleDelete))
	s.mux.HandleFunc(PathCompact, s.requirePost(s.handleCompact))
	s.mux.HandleFunc(PathSnapshot, s.handleSnapshot)
	s.mux.HandleFunc(PathCheckpoint, s.handleCheckpoint)
	s.mux.HandleFunc(PathChanges, s.handleChanges)
	s.mux.HandleFunc(PathHealth, s.handleHealth)
	s.mux.HandleFunc(PathStats, s.handleStats)
	return s
}

// Handler returns the HTTP handler serving every endpoint.
func (s *Server) Handler() http.Handler { return s.mux }

// Index returns the default tenant's index (nil when a multi-tenant
// server has no default tenant yet).
func (s *Server) Index() *trajcover.Index {
	if s.reg == nil {
		return s.idx.Load()
	}
	idx, release, err := s.reg.Acquire(tenant.DefaultID, false)
	if err != nil {
		return nil
	}
	release()
	return idx
}

// SetIndex atomically replaces the single-tenant served index. It is
// the replica re-bootstrap hook: when the primary's replication boot
// identity changes (crash + WAL recovery), the replica restores a
// fresh index from the new snapshot and swaps it in here without
// dropping its listener. Requests already admitted finish against the
// index they were admitted on — still a valid acknowledged prefix.
// Servers that swap indexes must run with the result cache disabled
// (Config.ResultCacheBytes <= 0): cache keys include the index's write
// version but not its identity, so entries from the old index could
// answer for the new one. Panics on a multi-tenant server or a nil
// index.
func (s *Server) SetIndex(idx *trajcover.Index) {
	if s.reg != nil {
		panic("server: SetIndex on a multi-tenant server")
	}
	if idx == nil {
		panic("server: SetIndex(nil)")
	}
	s.idx.Store(idx)
}

// SetOverrides swaps in a new per-tenant limits document — the whole
// document atomically, which with ParseOverrides' all-or-nothing
// validation is what makes "an invalid overrides file keeps the old
// limits" hold end to end. nil means no limits.
func (s *Server) SetOverrides(o *tenant.Overrides) { s.ovr.Store(o) }

// SetOverridesStatus installs a callback reporting overrides reload
// counters on /statsz (wired by cmd/tqserve from the file watcher).
func (s *Server) SetOverridesStatus(fn func() OverridesSnapshot) { s.ovrStatus = fn }

// limitsFor resolves a tenant's effective limits under the current
// overrides document.
func (s *Server) limitsFor(id string) tenant.Limits { return s.ovr.Load().For(id) }

// gateOf returns tenant id's admission gate, creating it on first
// traffic.
func (s *Server) gateOf(id string) *tenant.Gate {
	s.gmu.Lock()
	defer s.gmu.Unlock()
	g := s.gates[id]
	if g == nil {
		g = &tenant.Gate{Now: s.now}
		s.gates[id] = g
	}
	return g
}

// resolveTenant extracts the request's tenant from the X-Tenant header
// and/or the body's "tenant" field: absent both it is the default
// tenant; set both and disagreeing it is a 400. The ID is validated
// BEFORE any registry access, so a malformed tenant (path traversal,
// oversized, non-ASCII) can never create directories or gates.
func resolveTenant(r *http.Request, bodyTenant string) (string, error) {
	id := r.Header.Get("X-Tenant")
	if id == "" {
		id = bodyTenant
	} else if bodyTenant != "" && bodyTenant != id {
		return "", badRequestf("tenant mismatch: X-Tenant header %q vs body tenant %q", id, bodyTenant)
	}
	if id == "" {
		return tenant.DefaultID, nil
	}
	if err := tenant.ValidateID(id); err != nil {
		return "", badRequestf("%v", err)
	}
	return id, nil
}

// acquireTenant resolves a tenant ID to its index plus a release func.
// In single-tenant mode only the default tenant exists.
func (s *Server) acquireTenant(id string, create bool) (*trajcover.Index, func(), error) {
	if s.reg != nil {
		return s.reg.Acquire(id, create)
	}
	if id != tenant.DefaultID {
		return nil, nil, fmt.Errorf("%w: %q", trajcover.ErrUnknownTenant, id)
	}
	return s.idx.Load(), func() {}, nil
}

// acquireStatus maps an acquireTenant failure to its status: 404 for a
// tenant that does not exist, 400 for an ID the registry refuses, 500
// for anything else.
func acquireStatus(err error) int {
	switch {
	case errors.Is(err, trajcover.ErrUnknownTenant):
		return http.StatusNotFound
	case trajcover.IsBadTenantID(err):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// BeginDrain flips the server into draining: /healthz reports 503 (so
// load balancers stop routing here) and new /v1/* work is rejected with
// 503 while in-flight requests finish. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close stops admission and blocks until no admitted work is still
// running. Call it after the HTTP layer has stopped delivering requests
// (http.Server.Shutdown or httptest.Server.Close has returned); a
// handler that nevertheless outlived a timed-out Shutdown gets 503, and
// one still waiting for a slot is woken to answer 503. The HTTP layer
// neither closes nor waits for upgraded exchange connections: Close
// closes them and waits for their loops to end. Idempotent.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.amu.Lock()
		s.closed = true
		for c := range s.conns {
			c.Close()
		}
		close(s.closing)
		s.amu.Unlock()
	})
	s.running.Wait()
}

// holdConn registers an upgraded exchange connection, counted in running
// until dropConn, so that Close closes it and waits for its loop; false
// means Close has begun.
func (s *Server) holdConn(c net.Conn) bool {
	s.amu.Lock()
	defer s.amu.Unlock()
	if s.closed {
		return false
	}
	s.running.Add(1)
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) dropConn(c net.Conn) {
	s.amu.Lock()
	delete(s.conns, c)
	s.amu.Unlock()
	s.running.Done()
}

// acquireSlot admits one request's work: it returns 0 once the caller
// holds a slot, and must then call releaseSlot, or the status of the
// rejection that stands in for the work — 503 once Close has begun,
// 429 when QueueDepth handlers already wait for a slot, 504 when ctx
// ends before one comes free. A rejected request's work never runs.
func (s *Server) acquireSlot(ctx context.Context) int {
	s.amu.RLock()
	if s.closed {
		s.amu.RUnlock()
		return http.StatusServiceUnavailable
	}
	s.running.Add(1)
	s.amu.RUnlock()
	select {
	case s.slots <- struct{}{}:
	default:
		if status := s.waitSlot(ctx); status != 0 {
			s.running.Done()
			return status
		}
	}
	if ctx.Err() != nil {
		// The deadline passed (or the client left) before the work could
		// start: it is skipped, as a waiter's is.
		s.releaseSlot()
		return http.StatusGatewayTimeout
	}
	return 0
}

// waitSlot blocks for a free slot as one of at most QueueDepth waiters.
func (s *Server) waitSlot(ctx context.Context) int {
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		return http.StatusTooManyRequests
	}
	defer s.waiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		return 0
	case <-ctx.Done():
		return http.StatusGatewayTimeout
	case <-s.closing:
		return http.StatusServiceUnavailable
	}
}

// releaseSlot gives back the slot acquireSlot took.
func (s *Server) releaseSlot() {
	<-s.slots
	s.running.Done()
}

// requestTimeout resolves a request's deadline from its timeout_ms,
// capped by Config.MaxTimeout and the tenant's max_timeout_ms.
func (s *Server) requestTimeout(timeoutMS int64, lim tenant.Limits) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	if lim.MaxTimeoutMS > 0 {
		if tmax := time.Duration(lim.MaxTimeoutMS) * time.Millisecond; d > tmax {
			d = tmax
		}
	}
	return d
}

// RetryAfter is the Retry-After header, in seconds, on every transient
// rejection the server, the distributed frontend and a replica send.
const RetryAfter = "1"

// rejectRetryable answers any transient rejection — 429 on queue or
// quota pressure, 503 on drain or degraded mode — with a Retry-After
// hint. Every rejection that a well-behaved client should back off and
// retry goes through here; permanent errors (400/404/409/500) never
// carry the header.
func (s *Server) rejectRetryable(w http.ResponseWriter, status int, msg string) {
	w.Header()["Retry-After"] = retryAfterSeconds
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// quotaRejection is the 429 for a tenant over one of its limits. The
// gate already counted the per-reason rejection; here it reaches the
// endpoint counters and the client, with Retry-After like global queue
// pressure — the client backoff story is the same.
func quotaRejection(ep *endpointStats, tid string, reason tenant.RejectReason) response {
	ep.rejected.Add(1)
	return response{status: http.StatusTooManyRequests, body: mustMarshal(ErrorResponse{Error: fmt.Sprintf("tenant %q over %s", tid, reason)}), retryAfter: true}
}

// executeTenant runs one unit of work on the handler's own goroutine on
// behalf of a tenant (execute) and writes its answer; the exchange writes
// execute's answer as a frame instead.
func (s *Server) executeTenant(w http.ResponseWriter, r *http.Request, ep *endpointStats, tid string, isWrite bool, timeoutMS int64, cached *cachedRead, run runFunc) {
	start := time.Now()
	resp, timed := s.execute(r.Context(), ep, tid, isWrite, timeoutMS, cached, run)
	s.writeResponse(w, resp)
	if timed {
		ep.observe(time.Since(start))
	}
}

// execute runs one unit of work on behalf of a tenant: per-tenant
// admission (429 over quota), index resolution (404 unknown on reads,
// lazy create on writes), the request deadline under ctx, slot admission
// (acquireSlot: 429, 503 or 504 in place of the work), and the work. It
// returns the answer, and whether the caller should time it once written
// — only requests that waited or ran, or were answered from the cache,
// are timed: rejections return in microseconds and would dilute the
// served mean. Gate slots are held until the work is done, so quotas
// bound real waiting + running occupancy; a request that never gets a
// slot gives its gate slots back at once. All terminal paths update the
// endpoint's counters.
//
// cached, when non-nil, makes the work cacheable (reads on a server that
// has a cache): the handler captures the index version v, probes the
// cache at (cached.hash, tenant, v) — a hit answers at once, taking no
// slot — and on a miss stores the work's 200 answer only if the version
// still reads v afterwards. That capture/compute/recheck protocol is
// what keeps the cache linearizable: an equal recheck proves no epoch
// was published while the query ran, and a version observed at request
// time always names an answer the client could have gotten from an
// uncached server at that moment. Per-tenant quota admission still
// applies to hits. A request whose hash came from an alias arrives
// undecoded (cached.decode): only the miss pays for the decode, which
// supplies timeoutMS.
func (s *Server) execute(ctx context.Context, ep *endpointStats, tid string, isWrite bool, timeoutMS int64, cached *cachedRead, run runFunc) (response, bool) {
	ep.requests.Add(1)

	lim := s.limitsFor(tid)
	gate := s.gateOf(tid)
	ok, reason := gate.Admit(lim)
	if !ok {
		return quotaRejection(ep, tid, reason), false
	}
	if isWrite && !gate.AdmitWrite(lim) {
		gate.Cancel()
		return quotaRejection(ep, tid, tenant.RejectRate), false
	}
	idx, release, err := s.acquireTenant(tid, isWrite)
	if err != nil {
		gate.Cancel()
		ep.errors.Add(1)
		return response{status: acquireStatus(err), body: mustMarshal(ErrorResponse{Error: err.Error()})}, false
	}

	var key rescache.Key
	if cached != nil {
		key = rescache.Key{Hash: cached.hash, Tenant: tid, Version: idx.Version()}
		if body, ok := s.cache.Get(key); ok {
			gate.Cancel()
			release()
			return response{status: http.StatusOK, body: body}, true
		}
		if cached.decode != nil {
			// An alias is written only after these bytes decoded on this
			// endpoint under this header, so they decode again.
			if timeoutMS, err = cached.decode(); err != nil {
				gate.Cancel()
				release()
				ep.errors.Add(1)
				return response{status: http.StatusBadRequest, body: mustMarshal(ErrorResponse{Error: err.Error()})}, false
			}
		}
	}

	ctx, cancel := context.WithTimeout(ctx, s.requestTimeout(timeoutMS, lim))
	defer cancel()
	var resp response
	status := s.acquireSlot(ctx)
	if status == 0 {
		gate.Started()
		resp = run(ctx, idx)
		gate.Finished()
		if cached != nil && resp.status == http.StatusOK && idx.Version() == key.Version {
			// The answer's bytes are the request's own storage: the cache
			// keeps a copy.
			s.cache.Put(key, bytes.Clone(resp.body))
		}
		s.releaseSlot()
	} else {
		gate.Cancel()
		resp = rejection(ctx, status)
	}
	release()
	switch {
	case resp.status == http.StatusTooManyRequests: // only slot admission answers 429 here
		ep.rejected.Add(1)
	case resp.status >= 400:
		ep.errors.Add(1)
		if resp.status == http.StatusGatewayTimeout {
			ep.deadline.Add(1)
		}
	}
	return resp, status == 0 || status == http.StatusGatewayTimeout
}

// rejection is the answer that stands in for work acquireSlot refused
// with status.
func rejection(ctx context.Context, status int) response {
	switch status {
	case http.StatusTooManyRequests:
		return response{status: status, body: mustMarshal(ErrorResponse{Error: "worker queue full"}), retryAfter: true}
	case http.StatusServiceUnavailable:
		return response{status: status, body: mustMarshal(ErrorResponse{Error: "server closed"}), retryAfter: true}
	}
	return response{status: status, body: mustMarshal(ErrorResponse{Error: ctx.Err().Error()})}
}

// writeResponse sends a response as an ordinary HTTP answer.
func (s *Server) writeResponse(w http.ResponseWriter, resp response) {
	if resp.retryAfter {
		w.Header()["Retry-After"] = retryAfterSeconds
	}
	writeRaw(w, resp.status, resp.body)
}

// rejectDraining answers 503 while the server drains; a true return means
// the request was answered.
func (s *Server) rejectDraining(w http.ResponseWriter, ep *endpointStats) bool {
	if !s.draining.Load() {
		return false
	}
	ep.requests.Add(1)
	ep.errors.Add(1)
	s.rejectRetryable(w, http.StatusServiceUnavailable, "server draining")
	return true
}

// rejectBody answers a request body that could not be taken: a 413
// leaves the rest of the body unread, so it closes the connection.
func (s *Server) rejectBody(w http.ResponseWriter, ep *endpointStats, err error) {
	ep.requests.Add(1)
	ep.errors.Add(1)
	status := bodyErrorStatus(err)
	if status == http.StatusRequestEntityTooLarge {
		CloseAfterAnswer(w)
	}
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// admit gates a write or ops endpoint handler on drain state and reads
// the capped body; a false return means admit already answered.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ep *endpointStats) ([]byte, bool) {
	if s.rejectDraining(w, ep) {
		return nil, false
	}
	body, err := ReadBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		s.rejectBody(w, ep, err)
		return nil, false
	}
	return body, true
}

// bodyErrorStatus is the status of a request body that could not be
// taken: 413 past MaxBodyBytes, 400 for anything else.
func bodyErrorStatus(err error) int {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (s *Server) requirePost(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
			return
		}
		h(w, r)
	}
}

func (s *Server) rejectDecode(w http.ResponseWriter, ep *endpointStats, err error) {
	ep.requests.Add(1)
	ep.errors.Add(1)
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
}

// replLock serializes one (index write, replication append) pair. When
// replication is off it is a no-op, keeping the write path's existing
// concurrency; when on, it pins the log order to the order writes took
// effect on the index, which is what lets a replica replay the log and
// land on the primary's exact corpus.
func (s *Server) replLock() func() {
	if s.repl == nil {
		return func() {}
	}
	s.replmu.Lock()
	return s.replmu.Unlock
}

// runFunc is the work of one admitted request, run on its handler's
// goroutine against the tenant's index while it holds a slot.
type runFunc func(ctx context.Context, idx *trajcover.Index) response

// cachedRead is what makes a read answerable from the result cache: its
// canonical hash, and — when an alias supplied that hash and the body is
// still undecoded — the decode a result miss must run before any work.
type cachedRead struct {
	hash   [32]byte
	decode func() (timeoutMS int64, err error)
}

// answerFunc appends one read endpoint's 200 body for a decoded request
// to dst.
type answerFunc func(ctx context.Context, idx *trajcover.Index, req *QueryRequest, facs []*trajcover.Facility, q trajcover.Query, dst []byte) ([]byte, error)

// readRequest is one /v1/topk or /v1/servicevalues request between its
// body and its answer, all of it in pooled storage (buf) that the
// handler gives back once the answer is written.
type readRequest struct {
	needK  bool
	answer answerFunc
	buf    *QueryBuffer

	req  *QueryRequest
	facs []*trajcover.Facility
	q    trajcover.Query
}

// decode parses and validates the body; any error is a 400.
func (rr *readRequest) decode() (err error) {
	if rr.req, _, rr.q, err = rr.buf.Decode(rr.buf.body, rr.needK); err == nil {
		rr.facs, err = rr.buf.facilities()
	}
	return err
}

// decodeOnMiss is cachedRead.decode for a request an alias hit sent to
// the result lookup undecoded (its tenant came with the alias).
func (rr *readRequest) decodeOnMiss() (int64, error) {
	if err := rr.decode(); err != nil {
		return 0, err
	}
	return rr.req.TimeoutMS, nil
}

func (rr *readRequest) run(ctx context.Context, idx *trajcover.Index) response {
	body, err := rr.answer(ctx, idx, rr.req, rr.facs, rr.q, rr.buf.Answer[:0])
	if err != nil {
		return errResponse(err)
	}
	rr.buf.Answer = body
	return response{status: http.StatusOK, body: body}
}

// aliasKey is the cache key of a request as it arrived: a SHA-256 over
// the endpoint, the X-Tenant header value (both length-prefixed) and the
// raw body bytes, under a prefix no CanonicalQueryHash input starts with
// — and with an empty Tenant, which no answer's key has. Its value
// (aliasValue) names the tenant and canonical hash those bytes decode
// to, which is all a repeat of them needs to find its answer.
func aliasKey(endpoint, xTenant string, body []byte) rescache.Key {
	h := sha256.New()
	var n [8]byte
	io.WriteString(h, "alias\x00")
	for _, field := range [2]string{endpoint, xTenant} {
		binary.LittleEndian.PutUint64(n[:], uint64(len(field)))
		h.Write(n[:])
		io.WriteString(h, field)
	}
	h.Write(body)
	var k rescache.Key
	h.Sum(k.Hash[:0])
	return k
}

func aliasValue(hash [32]byte, tid string) []byte {
	return append(append(make([]byte, 0, len(hash)+len(tid)), hash[:]...), tid...)
}

func parseAlias(v []byte) (hash [32]byte, tid string) {
	tid = tenant.DefaultID // the common case, without a new string
	if t := v[len(hash):]; string(t) != tid {
		tid = string(t)
	}
	return [32]byte(v), tid
}

// serveRead is the two cacheable read endpoints' one handler. With a
// result cache (and no ?stream=1, which bypasses it) the raw bytes are
// looked up first: an alias hit names the tenant and canonical hash the
// same bytes decoded to before, so the request goes to its tenant's gate
// and the result lookup undecoded, and decodes only if that lookup
// misses (the index moved, or the answer was evicted). An alias miss
// decodes as always and then writes the alias — so only a valid,
// tenant-resolved request ever has one, and an invalid body is a 400
// every time. Bodies that differ in workers, timeout_ms or whitespace
// each get their own alias and share one answer through the canonical
// hash. The body, its decoded form and the answer's bytes live in one
// pooled QueryBuffer from the body's read to the answer's write.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, path string, needK bool, answer answerFunc) {
	ep := s.stats[path]
	if s.rejectDraining(w, ep) {
		return
	}
	buf := AcquireQueryBuffer()
	defer buf.Release()
	if err := buf.ReadBody(w, r, s.cfg.MaxBodyBytes); err != nil {
		s.rejectBody(w, ep, err)
		return
	}
	rr := readRequest{needK: needK, answer: answer, buf: buf}
	stream := path == PathServiceValues && r.URL.RawQuery != "" && r.URL.Query().Get("stream") == "1"
	var alias rescache.Key
	if s.cache != nil && !stream {
		alias = aliasKey(path, r.Header.Get("X-Tenant"), buf.body)
		if v, ok := s.cache.GetAlias(alias); ok {
			hash, tid := parseAlias(v)
			s.executeTenant(w, r, ep, tid, false, 0, &cachedRead{hash: hash, decode: rr.decodeOnMiss}, rr.run)
			return
		}
	}
	err := rr.decode()
	var tid string
	if err == nil {
		tid, err = resolveTenant(r, rr.req.Tenant)
	}
	if err != nil {
		s.rejectDecode(w, ep, err)
		return
	}
	if stream {
		s.streamServiceValues(w, r, ep, tid, rr.req, rr.facs, rr.q)
		return
	}
	var cached *cachedRead
	if s.cache != nil {
		k := 0
		if needK {
			k = rr.req.K
		}
		cached = &cachedRead{hash: CanonicalQueryHash(path, rr.req, k, rr.q)}
		s.cache.Put(alias, aliasValue(cached.hash, tid))
	}
	s.executeTenant(w, r, ep, tid, false, rr.req.TimeoutMS, cached, rr.run)
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, PathTopK, true, func(ctx context.Context, idx *trajcover.Index, req *QueryRequest, facs []*trajcover.Facility, q trajcover.Query, dst []byte) ([]byte, error) {
		res, err := idx.TopKParallelCtx(ctx, facs, req.K, q, req.Workers)
		if err != nil {
			return nil, err
		}
		return AppendTopKResponse(dst, res), nil
	})
}

func (s *Server) handleServiceValues(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, PathServiceValues, false, func(ctx context.Context, idx *trajcover.Index, req *QueryRequest, facs []*trajcover.Facility, q trajcover.Query, dst []byte) ([]byte, error) {
		vs, err := idx.ServiceValuesCtx(ctx, facs, q, req.Workers)
		if err != nil {
			return nil, err
		}
		return AppendValuesResponse(dst, vs), nil
	})
}

// streamServiceValues answers /v1/servicevalues?stream=1: the same
// query as the batch path, delivered as NDJSON — one StreamChunk line
// per facility chunk, in facility order, ending with a StreamTrailer
// line on success or an ErrorResponse line if the query fails after
// the first chunk was sent (headers are committed by then, so the
// status stays 200 and the error travels in-band; a stream without a
// trailer is truncated). Values are bit-identical to the batch
// response over the same facilities: chunks run the same batch core,
// and the stream answers from one epoch capture taken before the
// first chunk. Streams take no slot — they hold a response open for
// their whole life, which slot occupancy is not built for — but still
// pass per-tenant admission and count against inflight quota until
// done. Streamed
// responses bypass the result cache (the cache stores whole bodies,
// and a client asking to stream is asking not to wait for one).
// Chunk size comes from ?chunk=N (default shard.DefaultStreamChunk).
func (s *Server) streamServiceValues(w http.ResponseWriter, r *http.Request, ep *endpointStats, tid string, req *QueryRequest, facs []*trajcover.Facility, q trajcover.Query) {
	start := time.Now()
	ep.requests.Add(1)

	chunk := 0
	if c := r.URL.Query().Get("chunk"); c != "" {
		n, err := strconv.Atoi(c)
		if err != nil || n <= 0 {
			ep.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "chunk must be a positive integer"})
			return
		}
		chunk = n
	}

	lim := s.limitsFor(tid)
	gate := s.gateOf(tid)
	ok, reason := gate.Admit(lim)
	if !ok {
		s.writeResponse(w, quotaRejection(ep, tid, reason))
		return
	}
	gate.Started()
	defer gate.Finished()
	idx, release, err := s.acquireTenant(tid, false)
	if err != nil {
		ep.errors.Add(1)
		writeJSON(w, acquireStatus(err), ErrorResponse{Error: err.Error()})
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS, lim))
	defer cancel()

	flusher, _ := w.(http.Flusher)
	wrote := false
	err = idx.ServiceValuesStreamCtx(ctx, facs, q, req.Workers, chunk, func(at int, vals []float64) error {
		if !wrote {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			wrote = true
		}
		if _, err := w.Write(MarshalStreamChunk(at, vals)); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		ep.errors.Add(1)
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			ep.deadline.Add(1)
		}
		if !wrote {
			resp := errResponse(err)
			writeRaw(w, resp.status, resp.body)
		} else {
			w.Write(append(mustMarshal(ErrorResponse{Error: err.Error()}), '\n'))
		}
		return
	}
	if !wrote {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	w.Write(append(mustMarshal(StreamTrailer{Done: true, Count: len(facs)}), '\n'))
	if flusher != nil {
		flusher.Flush()
	}
	ep.observe(time.Since(start))
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathInsert]
	body, ok := s.admit(w, r, ep)
	if !ok {
		return
	}
	req, u, err := DecodeInsertRequest(body)
	if err != nil {
		s.rejectDecode(w, ep, err)
		return
	}
	tid, err := resolveTenant(r, req.Tenant)
	if err != nil {
		s.rejectDecode(w, ep, err)
		return
	}
	s.executeTenant(w, r, ep, tid, true, req.TimeoutMS, nil, func(_ context.Context, idx *trajcover.Index) response {
		unlock := s.replLock()
		err := idx.Insert(u)
		if err == nil && s.repl != nil {
			s.repl.Append(replog.Entry{Op: replog.OpInsert, ID: req.ID, Points: req.Points})
		}
		unlock()
		if err != nil {
			// A duplicate ID is a conflict with the served corpus, not
			// malformed input. A degraded index is a transient 503: the
			// write was NOT acknowledged, queries still serve, and the
			// recovery probe is working the disk — retry after the hint.
			// Anything else is a durability failure the client cannot
			// retry through.
			if trajcover.IsDegraded(err) {
				return response{status: http.StatusServiceUnavailable, body: mustMarshal(ErrorResponse{Error: err.Error()}), retryAfter: true}
			}
			status := http.StatusInternalServerError
			if errors.Is(err, trajcover.ErrDuplicateID) {
				status = http.StatusConflict
			}
			return response{status: status, body: mustMarshal(ErrorResponse{Error: err.Error()})}
		}
		return response{status: http.StatusOK, body: mustMarshal(InsertResponse{Len: idx.Len()})}
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathDelete]
	body, ok := s.admit(w, r, ep)
	if !ok {
		return
	}
	req, err := DecodeDeleteRequest(body)
	if err != nil {
		s.rejectDecode(w, ep, err)
		return
	}
	tid, err := resolveTenant(r, req.Tenant)
	if err != nil {
		s.rejectDecode(w, ep, err)
		return
	}
	s.executeTenant(w, r, ep, tid, true, req.TimeoutMS, nil, func(_ context.Context, idx *trajcover.Index) response {
		unlock := s.replLock()
		found, err := idx.Delete(trajcover.ID(req.ID))
		if err == nil && found && s.repl != nil {
			// A not-found delete mutated nothing; replicating it would
			// only burn sequence numbers.
			s.repl.Append(replog.Entry{Op: replog.OpDelete, ID: req.ID})
		}
		unlock()
		if err != nil {
			// The delete was not acknowledged: transient 503 while
			// degraded (retry after the hint), 500 otherwise.
			if trajcover.IsDegraded(err) {
				return response{status: http.StatusServiceUnavailable, body: mustMarshal(ErrorResponse{Error: err.Error()}), retryAfter: true}
			}
			return response{status: http.StatusInternalServerError, body: mustMarshal(ErrorResponse{Error: err.Error()})}
		}
		return response{status: http.StatusOK, body: mustMarshal(DeleteResponse{Found: found})}
	})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathCompact]
	if _, ok := s.admit(w, r, ep); !ok {
		return
	}
	// Compact has no body fields; its tenant comes from X-Tenant alone.
	tid, err := resolveTenant(r, "")
	if err != nil {
		s.rejectDecode(w, ep, err)
		return
	}
	// Compact is not deadline-aware below the swap points; give it the
	// full MaxTimeout rather than the query default.
	s.executeTenant(w, r, ep, tid, false, s.cfg.MaxTimeout.Milliseconds(), nil, func(_ context.Context, idx *trajcover.Index) response {
		if err := idx.Compact(); err != nil {
			return response{status: http.StatusInternalServerError, body: mustMarshal(ErrorResponse{Error: err.Error()})}
		}
		return response{status: http.StatusOK, body: mustMarshal(CompactResponse{OK: true})}
	})
}

// handleSnapshot streams a TQLIVE02 checkpoint of the live index. The
// capture is one atomic epoch-set read, so writes keep flowing while
// the stream runs; it takes no slot (it is IO-bound ops traffic, not
// index work) but still counts on /statsz. On a WAL-backed
// index the stream comes from CheckpointTo — the checkpoint is made
// durable on disk and the WAL truncated before a byte reaches the
// client, so downloading a snapshot doubles as a checkpoint.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathSnapshot]
	ep.requests.Add(1)
	start := time.Now()
	defer func() { ep.observe(time.Since(start)) }()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		ep.errors.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use GET"})
		return
	}
	if s.draining.Load() {
		ep.errors.Add(1)
		s.rejectRetryable(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	idx, release, ok := s.opsTenant(w, r, ep)
	if !ok {
		return
	}
	defer release()
	w.Header().Set("Content-Type", "application/octet-stream")
	if s.repl != nil {
		// Seq is read BEFORE the stream's epoch capture, so every write
		// the snapshot might miss has a sequence number strictly above
		// the header — the replica's tail replay starts there, and any
		// overlap (writes landing between this read and the capture)
		// replays idempotently on the replica.
		w.Header().Set("X-Repl-Boot", s.repl.BootID())
		w.Header().Set("X-Repl-Seq", strconv.FormatUint(s.repl.Seq(), 10))
	}
	var err error
	if _, hasWAL := idx.WALStats(); hasWAL {
		err = idx.CheckpointTo(w)
	} else {
		err = idx.WriteSnapshot(w)
	}
	if err != nil {
		// Headers are already gone; all we can do is count and cut the
		// stream short so the client's CRC check fails loudly.
		ep.errors.Add(1)
	}
}

// opsTenant resolves the tenant of a slotless ops endpoint
// (/v1/snapshot, /v1/checkpoint) from the X-Tenant header and acquires
// its index (never creating one). A false return means the error was
// already written (and counted).
func (s *Server) opsTenant(w http.ResponseWriter, r *http.Request, ep *endpointStats) (*trajcover.Index, func(), bool) {
	tid, err := resolveTenant(r, "")
	if err != nil {
		ep.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return nil, nil, false
	}
	idx, release, err := s.acquireTenant(tid, false)
	if err != nil {
		ep.errors.Add(1)
		writeJSON(w, acquireStatus(err), ErrorResponse{Error: err.Error()})
		return nil, nil, false
	}
	return idx, release, true
}

// handleCheckpoint runs a WAL checkpoint (durable TQLIVE02 snapshot in
// the WAL directory + segment truncation) without streaming the bytes.
// Writes keep flowing; like /v1/snapshot it takes no slot.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathCheckpoint]
	ep.requests.Add(1)
	start := time.Now()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		ep.errors.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use POST"})
		return
	}
	if s.draining.Load() {
		ep.errors.Add(1)
		s.rejectRetryable(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	idx, release, ok := s.opsTenant(w, r, ep)
	if !ok {
		return
	}
	defer release()
	wst, hasWAL := idx.WALStats()
	if !hasWAL {
		ep.errors.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "index has no WAL (start tqserve with -wal-dir or -tenant-root)"})
		return
	}
	defer func() { ep.observe(time.Since(start)) }()
	if err := idx.Checkpoint(); err != nil {
		ep.errors.Add(1)
		// A failed checkpoint degrades the index (durability stalled);
		// tell the client it is transient — the probe owns the retry.
		if idx.Degraded() {
			s.rejectRetryable(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return
	}
	wst, _ = idx.WALStats()
	writeJSON(w, http.StatusOK, CheckpointResponse{OK: true, WALSegments: wst.Segments, WALBytes: wst.Bytes})
}

// maxChangesWait caps /v1/changes long-polls so a silent replica can
// never pin a handler goroutine indefinitely.
const maxChangesWait = 30 * time.Second

// handleChanges serves GET /v1/changes — the replication tail. Query
// parameters: after (last applied sequence number, default 0), boot
// (the BootID the replica bootstrapped against), limit (max entries,
// default unbounded), wait_ms (long-poll: block up to this long for
// entries past `after` before answering empty). Answers 410 Gone when
// the boot identity changed or `after` precedes the retained window —
// both mean the replica's history diverged from what the log can
// replay, and it must re-bootstrap from /v1/snapshot. Like
// /v1/snapshot it takes no slot, and it keeps serving while
// draining so replicas can catch up right until the primary exits.
func (s *Server) handleChanges(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathChanges]
	ep.requests.Add(1)
	start := time.Now()
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		ep.errors.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use GET"})
		return
	}
	if s.repl == nil {
		ep.errors.Add(1)
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "replication log not enabled (single-tenant tqserve only)"})
		return
	}
	q := r.URL.Query()
	parseUint := func(name string) (uint64, bool) {
		raw := q.Get(name)
		if raw == "" {
			return 0, true
		}
		v, err := strconv.ParseUint(raw, 10, 64)
		if err != nil {
			ep.errors.Add(1)
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: name + " must be a non-negative integer"})
			return 0, false
		}
		return v, true
	}
	after, ok := parseUint("after")
	if !ok {
		return
	}
	limit64, ok := parseUint("limit")
	if !ok {
		return
	}
	waitMS, ok := parseUint("wait_ms")
	if !ok {
		return
	}
	if boot := q.Get("boot"); boot != "" && boot != s.repl.BootID() {
		ep.errors.Add(1)
		writeJSON(w, http.StatusGone, ErrorResponse{Error: fmt.Sprintf("replication boot changed (now %s): re-bootstrap from %s", s.repl.BootID(), PathSnapshot)})
		return
	}
	wait := time.Duration(waitMS) * time.Millisecond
	if wait > maxChangesWait {
		wait = maxChangesWait
	}
	var deadline <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		deadline = t.C
	}
	for {
		entries, ok := s.repl.After(after, int(limit64))
		if !ok {
			ep.errors.Add(1)
			writeJSON(w, http.StatusGone, ErrorResponse{Error: fmt.Sprintf("replication window trimmed past seq %d: re-bootstrap from %s", after, PathSnapshot)})
			return
		}
		if len(entries) > 0 || wait == 0 {
			writeJSON(w, http.StatusOK, ChangesResponse{BootID: s.repl.BootID(), Seq: s.repl.Seq(), Entries: entries})
			ep.observe(time.Since(start))
			return
		}
		wake, head := s.repl.WaitChan()
		if head > after {
			continue // appended between After and WaitChan
		}
		select {
		case <-wake:
		case <-deadline:
			wait = 0 // answer whatever is there now (possibly empty)
		case <-r.Context().Done():
			ep.errors.Add(1)
			writeJSON(w, http.StatusGatewayTimeout, ErrorResponse{Error: r.Context().Err().Error()})
			return
		}
	}
}

// HealthResponse is the /healthz document. Degraded maps each tenant
// currently in degraded read-only mode to its cause.
type HealthResponse struct {
	Status   string            `json:"status"`
	Degraded map[string]string `json:"degraded,omitempty"`
}

// degradedCauses maps each currently-degraded tenant to its cause
// (single-tenant mode reports under the default tenant ID). Nil when
// everything is writable.
func (s *Server) degradedCauses() map[string]string {
	if s.reg != nil {
		if deg := s.reg.Degraded(); len(deg) > 0 {
			return deg
		}
		return nil
	}
	if h := s.idx.Load().Health(); h.Degraded {
		return map[string]string{tenant.DefaultID: h.Cause}
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", RetryAfter)
		writeJSON(w, http.StatusServiceUnavailable, HealthResponse{Status: "draining"})
		return
	}
	// Degraded is NOT down: queries still serve from the last published
	// epochs, so load balancers must keep routing reads here — 200 with
	// the causes spelled out, writes answering 503 individually.
	if deg := s.degradedCauses(); deg != nil {
		writeJSON(w, http.StatusOK, HealthResponse{Status: "degraded", Degraded: deg})
		return
	}
	writeJSON(w, http.StatusOK, HealthResponse{Status: "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// Stats snapshots the serving counters — the same document /statsz
// serves. Index/WAL describe the default tenant (when it exists);
// Tenants carries each traffic-bearing tenant's effective limits and
// gate counters.
func (s *Server) Stats() Stats {
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st := Stats{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       s.cfg.Workers,
		QueueCap:      s.cfg.QueueDepth,
		QueueDepth:    int(s.waiting.Load()),
		Draining:      s.draining.Load(),
		Process: ProcessSnapshot{
			Goroutines:     runtime.NumGoroutine(),
			UptimeSeconds:  time.Since(s.start).Seconds(),
			HeapInuseBytes: mem.HeapInuse,
			RSSBytes:       readRSSBytes(),
		},
		Endpoints: make(map[string]EndpointSnapshot, len(s.stats)),
	}
	for p, ep := range s.stats {
		st.Endpoints[p] = ep.snapshot()
	}
	if idx := s.Index(); idx != nil {
		h := idx.Health()
		st.Index = IndexSnapshot{
			Len:      idx.Len(),
			Shards:   idx.NumShards(),
			PerShard: idx.Stats(),
			Health:   &h,
		}
		if err := idx.Err(); err != nil {
			st.Index.RebuildError = err.Error()
		}
		if wst, ok := idx.WALStats(); ok {
			st.WAL = &WALSnapshot{
				Records:                wst.Records,
				Segments:               wst.Segments,
				Bytes:                  wst.Bytes,
				Fsyncs:                 wst.Fsyncs,
				MaxFsyncMillis:         float64(wst.MaxFsync.Nanoseconds()) / 1e6,
				SinceCheckpointSeconds: wst.SinceCheckpoint.Seconds(),
			}
		}
	}
	s.gmu.Lock()
	if len(s.gates) > 0 {
		st.Tenants = make(map[string]TenantSnapshot, len(s.gates))
		for id, g := range s.gates {
			st.Tenants[id] = TenantSnapshot{Limits: s.limitsFor(id), Gate: g.Snapshot()}
		}
	}
	s.gmu.Unlock()
	if s.reg != nil {
		rst := s.reg.Stats()
		st.Registry = &rst
		st.DegradedTenants = s.degradedCauses()
	}
	if s.ovrStatus != nil {
		ost := s.ovrStatus()
		st.OverridesInfo = &ost
	}
	if s.cache != nil {
		cst := s.cache.Stats()
		st.ResultCache = &cst
	}
	if s.repl != nil {
		rst := s.repl.Snapshot()
		st.Replication = &rst
	}
	return st
}

// errResponse maps a query-layer error to a response: expired deadlines
// and cancelled clients are 504 (the deadline did its job), anything
// else surviving the hardened decoder is a request the index rejected
// (e.g. a scenario the index variant cannot answer exactly) — 400.
func errResponse(err error) response {
	status := http.StatusBadRequest
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		status = http.StatusGatewayTimeout
	}
	return response{status: status, body: mustMarshal(ErrorResponse{Error: err.Error()})}
}

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	w.Write(body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	writeRaw(w, status, mustMarshal(v))
}
