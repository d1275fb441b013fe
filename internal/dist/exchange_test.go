package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// frameTap wraps a backend's ResponseWriter to see an exchange's reply
// frames go by — the handler writes each in one Write — and to interfere
// at a chosen one. Unwrap keeps http.ResponseController working.
type frameTap struct {
	http.ResponseWriter
	frames int
	// before runs ahead of the n-th frame's Write (1-based).
	before func(n int)
}

func (w *frameTap) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *frameTap) Write(p []byte) (int, error) {
	w.frames++
	w.before(w.frames)
	return w.ResponseWriter.Write(p)
}

// tapExchanges serves h with every /v1/exchange response tapped.
func tapExchanges(h http.Handler, before func(n int)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == server.PathExchange {
			w = &frameTap{ResponseWriter: w, before: before}
		}
		h.ServeHTTP(w, r)
	})
}

func newBackend(t *testing.T, users []*trajcover.Trajectory) *server.Server {
	t.Helper()
	idx, err := trajcover.NewLiveShardedIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	t.Cleanup(srv.Close)
	return srv
}

// TestFrontendMidExchangeLoss: the member serving a group dies after its
// second round, with a replica behind it that lags — it lacks writes the
// dead member had. The merge restarts from the top against the replica,
// so the answer is byte-identical to the replica's own single-epoch
// answer (summed with the other group's), never the dead member's bounds
// and first rounds spliced onto the replica's later ones. With no
// replica to restart on it is 503 + Retry-After, strict and ?partial=1
// alike.
func TestFrontendMidExchangeLoss(t *testing.T) {
	users := testUsers(300, 411)
	parts := partitionUsers(users, 2)
	// The writes the replica has not seen: hub trips, so each one moves
	// every facility's value.
	ahead := append([]*trajcover.Trajectory(nil), parts[0]...)
	for id := uint32(60_000); len(ahead) < len(parts[0])+25; id++ {
		if RouteID(id, 2) == 0 {
			ahead = append(ahead, hubTrip(t, id))
		}
	}
	facs := hubFacilities(t, 32, 412)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 30}
	const k = 2 // rounds of 2, 4, 8, 16, 2: the death comes with three to go

	var killed atomic.Int64
	type connKey struct{}
	primary := httptest.NewUnstartedServer(nil)
	primary.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		return context.WithValue(ctx, connKey{}, c)
	}
	{
		h := newBackend(t, ahead).Handler()
		primary.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(&frameTap{ResponseWriter: w, before: func(n int) {
				if n == 4 { // bounds, round 1 and round 2 went out; round 3's answer never does
					killed.Add(1)
					// As a killed process goes: the socket closes under everyone.
					r.Context().Value(connKey{}).(net.Conn).Close()
					panic(http.ErrAbortHandler)
				}
			}}, r)
		})
	}
	primary.Start()
	defer primary.Close()
	replica := httptest.NewServer(newBackend(t, parts[0]).Handler())
	defer replica.Close()
	other := httptest.NewServer(newBackend(t, parts[1]).Handler())
	defer other.Close()

	// What the replica's epoch answers, in one process.
	lagging, err := trajcover.NewLiveShardedIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lagging.TopK(facs, k, q)
	if err != nil {
		t.Fatal(err)
	}
	current, err := trajcover.NewLiveShardedIndex(append(append([]*trajcover.Trajectory(nil), ahead...), parts[1]...), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	if cur, err := current.TopK(facs, k, q); err != nil || bytes.Equal(server.MarshalTopKResponse(cur), server.MarshalTopKResponse(want)) {
		t.Fatalf("the replica's lag does not show in the answer (%v): a mixture could not be told apart", err)
	}

	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: k, Psi: q.Psi})
	run := func(members []string, check func(path string, st int, got []byte, hdr http.Header)) FrontendStats {
		t.Helper()
		fe, err := NewFrontend(FrontendConfig{
			Groups:         []Group{{Members: members}, {Members: []string{other.URL}}},
			DefaultTimeout: 30 * time.Second,
			ProbeInterval:  time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer fe.Close()
		fets := httptest.NewServer(fe.Handler())
		defer fets.Close()
		// The dying member is healthy until it dies, and the round-robin
		// cursor starts one of two reads on it.
		for read := 0; read < 2; read++ {
			for _, path := range []string{server.PathTopK, server.PathTopK + "?partial=1"} {
				st, got, hdr := postTo(t, fets.Client(), fets.URL+path, body)
				check(path, st, got, hdr)
			}
		}
		return fe.Stats()
	}

	stats := run([]string{replica.URL, primary.URL}, func(path string, st int, got []byte, _ http.Header) {
		if st != http.StatusOK || !bytes.Equal(got, server.MarshalTopKResponse(want)) {
			t.Fatalf("%s: %d\n got: %s\nwant the replica's own answer: %s", path, st, got, server.MarshalTopKResponse(want))
		}
	})
	if killed.Load() != 1 || stats.Failovers != 1 {
		t.Fatalf("the primary died mid-exchange %d times and the frontend failed over %d times, want 1 and 1", killed.Load(), stats.Failovers)
	}
	if stats.Exchanges != 4*2+2 {
		t.Fatalf("%d exchanges for four reads on two groups and one restart, want 10", stats.Exchanges)
	}

	killed.Store(0)
	stats = run([]string{primary.URL}, func(path string, st int, got []byte, hdr http.Header) {
		if killed.Load() == 0 {
			t.Fatalf("%s: answered %d before the member died", path, st)
		}
		if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
			t.Fatalf("%s with no member left: %d %s (Retry-After %q), want 503 + Retry-After", path, st, got, hdr.Get("Retry-After"))
		}
	})
	if stats.PartialResponses != 0 {
		t.Fatalf("%d partial answers after a mid-exchange loss", stats.PartialResponses)
	}
}

// TestFrontendClientGone: a client that abandons its /v1/topk while the
// exchanges are open takes them down with it — each backend's handler
// returns, its tenant gate slot and frame buffers with it, and no
// goroutine on either side outlives the request.
func TestFrontendClientGone(t *testing.T) {
	users := testUsers(300, 421)
	parts := partitionUsers(users, 2)
	var holding atomic.Bool
	held := make(chan struct{}, 2)
	release := make(chan struct{})
	var srvs []*server.Server
	var groups []Group
	for g := range parts {
		srv := newBackend(t, parts[g])
		ts := httptest.NewServer(tapExchanges(srv.Handler(), func(n int) {
			if n == 3 && holding.Load() { // mid-exchange: bounds and one round are out
				held <- struct{}{}
				<-release
			}
		}))
		defer ts.Close()
		srvs = append(srvs, srv)
		groups = append(groups, Group{Members: []string{ts.URL}})
	}
	fe, err := NewFrontend(FrontendConfig{Groups: groups, DefaultTimeout: 30 * time.Second, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(testFacilities(32, 5, 422)), K: 2, Psi: 40})

	// Warm: every connection the tier keeps idle exists before the count.
	if st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body); st != http.StatusOK {
		t.Fatalf("warm-up topk: %d %s", st, got)
	}
	baseline := runtime.NumGoroutine()

	holding.Store(true)
	ctx, abandon := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, fets.URL+server.PathTopK, bytes.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = fets.Client().Do(req); err == nil {
				resp.Body.Close()
				err = fmt.Errorf("answered %s", resp.Status)
			}
		}
		done <- err
	}()
	for range groups {
		select {
		case <-held:
		case <-time.After(10 * time.Second):
			t.Fatal("the exchanges never reached their second round")
		}
	}
	for g, srv := range srvs {
		if got := srv.Stats().Tenants["default"].Gate.Inflight; got != 1 {
			t.Fatalf("backend %d holds %d gate slots mid-exchange, want 1", g, got)
		}
	}
	abandon()
	if err := <-done; !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("abandoned request: %v", err)
	}
	holding.Store(false)
	close(release)

	deadline := time.Now().Add(10 * time.Second)
	for g, srv := range srvs {
		for srv.Stats().Tenants["default"].Gate.Inflight != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("backend %d still holds its gate slot after the client left", g)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before the abandoned request, %d after\n%s", baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the tier still answers.
	if st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body); st != http.StatusOK {
		t.Fatalf("topk after the abandoned one: %d %s", st, got)
	}
}

// TestFrontendSingleTenant: the tier's backends are single-tenant, so a
// request that names any other tenant — in the X-Tenant header or the
// body, on a read or a write — is a 400 at the frontend, not an answer
// from (or a write routed towards) the default tenant's corpus.
func TestFrontendSingleTenant(t *testing.T) {
	e := newDistEnv(t, testUsers(100, 431), 2, FrontendConfig{ProbeInterval: time.Hour})
	fjs := server.FacilitiesJSON(testFacilities(3, 4, 432))
	nextID := uint32(70_000)
	endpoints := []struct {
		path string
		body func(tenant string) any
	}{
		{server.PathTopK, func(tn string) any { return server.QueryRequest{Facilities: fjs, K: 1, Psi: 40, Tenant: tn} }},
		{server.PathServiceValues, func(tn string) any { return server.QueryRequest{Facilities: fjs, Psi: 40, Tenant: tn} }},
		{server.PathInsert, func(tn string) any {
			nextID++
			return server.InsertRequest{ID: nextID, Points: [][2]float64{{1, 1}, {2, 2}}, Tenant: tn}
		}},
		{server.PathDelete, func(tn string) any { return server.DeleteRequest{ID: nextID, Tenant: tn} }},
	}
	for _, ep := range endpoints {
		for _, header := range []string{"", "default", "acme"} {
			for _, bodyTenant := range []string{"", "default", "acme"} {
				req, err := http.NewRequest(http.MethodPost, e.fets.URL+ep.path, bytes.NewReader(mustBody(t, ep.body(bodyTenant))))
				if err != nil {
					t.Fatal(err)
				}
				if header != "" {
					req.Header.Set("X-Tenant", header)
				}
				resp, err := e.client.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				got, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				want := http.StatusOK
				if header == "acme" || bodyTenant == "acme" {
					want = http.StatusBadRequest
				}
				if resp.StatusCode != want {
					t.Errorf("%s X-Tenant %q body tenant %q: %d %s, want %d", ep.path, header, bodyTenant, resp.StatusCode, got, want)
				}
				if want == http.StatusBadRequest && !strings.Contains(string(got), "single-tenant") {
					t.Errorf("%s X-Tenant %q body tenant %q: 400 does not say why: %s", ep.path, header, bodyTenant, got)
				}
			}
		}
	}
	if got := e.fe.Stats().Exchanges; got != 2*2*4 {
		t.Fatalf("%d exchanges: the 8 default-tenant reads on 2 groups take 16, and a refused one none", got)
	}
}

// TestFrontendCursorWrap: the read round-robin cursor is a uint32 that
// wraps after 2³² reads; the member it picks must stay in range across
// the wrap (reduced before any conversion to int, which is 32 bits wide
// on some builds) and keep rotating.
func TestFrontendCursorWrap(t *testing.T) {
	users := testUsers(60, 441)
	var served [3]atomic.Int64
	var members []string
	for i := range served {
		h, n := newBackend(t, users).Handler(), &served[i]
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == server.PathExchange {
				n.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		defer ts.Close()
		members = append(members, ts.URL)
	}
	fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: members}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()
	fe.groups[0].rr.Store(math.MaxUint32 - 2)
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(testFacilities(2, 3, 442)), K: 1, Psi: 40})
	for i := 0; i < 6; i++ { // cursor values 2³²−2, 2³²−1, 0, 1, 2, 3
		if st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body); st != http.StatusOK {
			t.Fatalf("read %d across the wrap: %d %s", i, st, got)
		}
	}
	for i := range served {
		if served[i].Load() == 0 {
			t.Fatalf("member %d served none of six reads across the wrap: %v %v %v", i, served[0].Load(), served[1].Load(), served[2].Load())
		}
	}
	if fe.Stats().Failovers != 0 {
		t.Fatalf("%d failovers with every member up", fe.Stats().Failovers)
	}
}

// loopback is an http.RoundTripper that answers /v1/exchange in process
// from a real backend's numbers computed once: the frontend half of an
// exchange without net/http's client or a backend's work in the count.
type loopback struct {
	bounds []float64
	values []float64 // per facility
}

func (lb *loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	pr, pw := io.Pipe()
	go func() {
		defer req.Body.Close()
		kind, payload, err := server.ReadFrame(req.Body, nil, 8<<20)
		if err != nil || kind != server.FrameQuery {
			pw.CloseWithError(fmt.Errorf("loopback: first frame: kind %d, %v", kind, err))
			return
		}
		var buf, out []byte
		pw.Write(server.AppendFloatsFrame(out[:0], server.FrameBounds, lb.bounds))
		var round []int
		var vals []float64
		for {
			kind, payload, err = server.ReadFrame(req.Body, buf, 8<<20)
			buf = payload
			if err != nil {
				pw.CloseWithError(err) // io.EOF: the frontend is done
				return
			}
			round, _ = server.DecodeRoundFrame(payload, len(lb.values), round[:0])
			vals = vals[:0]
			for _, i := range round {
				vals = append(vals, lb.values[i])
			}
			out = server.AppendFloatsFrame(out[:0], server.FrameValues, vals)
			pw.Write(out)
		}
	}()
	return &http.Response{StatusCode: http.StatusOK, Body: pr, Request: req}, nil
}

type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestExchangeAllocs pins the frontend half of one paper-default
// /v1/topk — 128 facilities of 32 stops, k = 4, so a bounds frame and six
// rounds on each of two groups — with the backends replaced by an
// in-process loopback: the count is the JSON decode of the 160 KB body
// (about 140, pinned by internal/server's TestDecodeQueryRequestAllocs),
// the query frame, two exchanges' bookkeeping (about 30 each), the merge,
// and some 60 of the loopback's own. Per round it is the round's sums and
// the re-sort of what has been evaluated, nothing per facility.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	facs := testFacilities(128, 32, 452)
	idx, err := trajcover.NewLiveShardedIndex(testUsers(2000, 451), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	lb := &loopback{}
	if lb.bounds, err = idx.UpperBoundsCtx(context.Background(), facs, q); err != nil {
		t.Fatal(err)
	}
	if lb.values, err = idx.ServiceValues(facs, q, 1); err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(FrontendConfig{
		Groups:        []Group{{Members: []string{"http://group0"}}, {Members: []string{"http://group1"}}},
		Client:        &http.Client{Transport: lb},
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: 4, Psi: q.Psi})
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, server.PathTopK, rd)
	w := &nullWriter{h: http.Header{}}
	run := func() {
		rd.Reset(body)
		w.status = 0
		fe.Handler().ServeHTTP(w, req)
	}
	before := fe.Stats()
	run()
	after := fe.Stats()
	if w.status != http.StatusOK || after.Exchanges-before.Exchanges != 2 || after.BoundRPCs-before.BoundRPCs != 2 || after.ExactRPCs-before.ExactRPCs != 12 {
		t.Fatalf("status %d, counters %+v -> %+v, want 2 exchanges carrying 2 bounds frames and 12 rounds", w.status, before, after)
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("frontend half of a /v1/topk over two 7-frame exchanges: %.0f allocs", allocs)
	if allocs > 400 {
		t.Fatalf("frontend /v1/topk allocates %.0f/op, want <= 400", allocs)
	}
}
