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

// replyTap wraps a backend's ResponseWriter to interfere just before an
// exchange's reply — which the handler writes in one Write — goes out.
// Unwrap keeps http.ResponseController working.
type replyTap struct {
	http.ResponseWriter
	before func()
}

func (w *replyTap) Unwrap() http.ResponseWriter { return w.ResponseWriter }

func (w *replyTap) Write(p []byte) (int, error) {
	w.before()
	return w.ResponseWriter.Write(p)
}

func newBackend(t *testing.T, users []*trajcover.Trajectory) *server.Server {
	t.Helper()
	idx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	t.Cleanup(srv.Close)
	return srv
}

// TestFrontendMidExchangeLoss: the member serving a group dies after
// accepting the request — its 200 is out, its values frame never arrives
// — with a replica behind it that lags: it lacks writes the dead member
// had. The member is failed over within the group, once, and since an
// exchange is one request and one reply nothing of the dead member's is
// left to splice: the answer is byte-identical to the replica's own
// (summed with the other group's). With no replica to fail over to the
// group is missing: 503 + Retry-After, or under ?partial=1 the other
// group's answer, flagged.
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
	const k = 2

	var killed atomic.Int64
	type connKey struct{}
	primary := httptest.NewUnstartedServer(nil)
	primary.Config.ConnContext = func(ctx context.Context, c net.Conn) context.Context {
		return context.WithValue(ctx, connKey{}, c)
	}
	{
		h := newBackend(t, ahead).Handler()
		primary.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(&replyTap{ResponseWriter: w, before: func() {
				killed.Add(1)
				http.NewResponseController(w).Flush() // the 200 went out; the values frame never does
				// As a killed process goes: the socket closes under everyone.
				r.Context().Value(connKey{}).(net.Conn).Close()
				panic(http.ErrAbortHandler)
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
	lagging, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	want, err := lagging.TopK(facs, k, q)
	if err != nil {
		t.Fatal(err)
	}
	current, err := trajcover.NewIndex(append(append([]*trajcover.Trajectory(nil), ahead...), parts[1]...), liveOpts())
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
		t.Fatalf("the primary died holding a request %d times and the frontend failed over %d times, want 1 and 1", killed.Load(), stats.Failovers)
	}
	if stats.Exchanges != 4*2+1 || stats.ExactRPCs != 4*2 {
		t.Fatalf("%d exchanges answered 200 and %d values frames came back for four reads on two groups and one death, want 9 and 8", stats.Exchanges, stats.ExactRPCs)
	}

	otherOnly, err := trajcover.NewIndex(parts[1], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	survivor, err := otherOnly.TopK(facs, k, q)
	if err != nil {
		t.Fatal(err)
	}
	killed.Store(0)
	stats = run([]string{primary.URL}, func(path string, st int, got []byte, hdr http.Header) {
		if killed.Load() == 0 {
			t.Fatalf("%s: answered %d before the member died", path, st)
		}
		if path == server.PathTopK {
			if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
				t.Fatalf("%s with no member left: %d %s (Retry-After %q), want 503 + Retry-After", path, st, got, hdr.Get("Retry-After"))
			}
			return
		}
		wantPartial := mustBody(t, PartialTopKResponse{Results: toRankedJSON(survivor), Partial: true, MissingGroups: []int{0}})
		if st != http.StatusOK || !bytes.Equal(got, wantPartial) {
			t.Fatalf("%s with no member left: %d %s, want the other group's answer %s", path, st, got, wantPartial)
		}
	})
	if stats.PartialResponses != 2 {
		t.Fatalf("%d partial answers for two ?partial=1 reads with group 0 gone", stats.PartialResponses)
	}
}

// TestFrontendHostileReplies: a 200 that is not exactly one values frame
// of the count asked for is the member's failure — a retryable 503, the
// member removed — never an answer built from what did parse.
func TestFrontendHostileReplies(t *testing.T) {
	facs := testFacilities(3, 4, 461)
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: 2, Psi: 40})
	good := server.AppendFloatsFrame(nil, []float64{3, 2, 1})
	for name, reply := range map[string][]byte{
		"nothing":          nil,
		"one value short":  server.AppendFloatsFrame(nil, []float64{3, 2}),
		"one value over":   server.AppendFloatsFrame(nil, []float64{3, 2, 1, 0}),
		"a trailing byte":  append(append([]byte(nil), good...), 0),
		"a second frame":   append(append([]byte(nil), good...), good...),
		"a query frame":    server.AppendQueryFrame(nil, facs, server.QueryParams{}),
		"a retired kind":   {24, 0, 0, 0, 4, 0, 0, 0},
		"half the payload": good[:len(good)-12],
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.Copy(io.Discard, r.Body)
			w.Write(reply)
		}))
		fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: []string{ts.URL}}}, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		fets := httptest.NewServer(fe.Handler())
		for _, path := range []string{server.PathTopK, server.PathServiceValues} {
			st, got, hdr := postTo(t, fets.Client(), fets.URL+path, body)
			if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
				t.Errorf("%s, %s: %d %s (Retry-After %q), want 503 + Retry-After", name, path, st, got, hdr.Get("Retry-After"))
			}
		}
		if stats := fe.Stats(); stats.Exchanges != 2 || stats.ExactRPCs != 0 || stats.Groups[0].Healthy != 0 {
			t.Errorf("%s: %+v, want 2 exchanges answered 200, no values frame accepted, the member removed", name, stats)
		}
		fets.Close()
		fe.Close()
		ts.Close()
	}
}

// TestFrontendClientGone: a client that abandons its /v1/topk while the
// exchanges are in flight takes them down with it — each backend's
// handler returns, its tenant gate slot with it, and no goroutine on
// either side outlives the request.
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
		h := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == server.PathExchange {
				w = &replyTap{ResponseWriter: w, before: func() {
					if holding.Load() { // the work is done, the reply not yet out
						held <- struct{}{}
						<-release
					}
				}}
			}
			h.ServeHTTP(w, r)
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
			t.Fatal("the exchanges never reached their replies")
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
// with a real backend's numbers computed once: the frontend half of an
// exchange without net/http's client or a backend's work in the count.
type loopback struct {
	reply []byte // the values frame
}

func (lb *loopback) RoundTrip(req *http.Request) (*http.Response, error) {
	defer req.Body.Close()
	if kind, _, err := server.ReadFrame(req.Body, nil, 8<<20); err != nil || kind != server.FrameQuery {
		return nil, fmt.Errorf("loopback: request frame: kind %d, %v", kind, err)
	}
	return &http.Response{StatusCode: http.StatusOK, Body: io.NopCloser(bytes.NewReader(lb.reply)), Request: req}, nil
}

type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestExchangeAllocs pins the frontend half of one paper-default
// /v1/topk — 128 facilities of 32 stops over two groups — with the
// backends replaced by an in-process loopback: the count is the JSON
// decode of the 160 KB body (about 140, pinned by internal/server's
// TestDecodeQueryRequestAllocs), the query frame, two exchanges'
// bookkeeping (a request, its context and timer, a reply), the merge and
// the sort, and a few of the loopback's own. Nothing is per facility.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	facs := testFacilities(128, 32, 452)
	idx, err := trajcover.NewIndex(testUsers(2000, 451), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	values, err := idx.ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	fe, err := NewFrontend(FrontendConfig{
		Groups:        []Group{{Members: []string{"http://group0"}}, {Members: []string{"http://group1"}}},
		Client:        &http.Client{Transport: &loopback{reply: server.AppendFloatsFrame(nil, values)}},
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
	if w.status != http.StatusOK || after.Exchanges-before.Exchanges != 2 || after.ExactRPCs-before.ExactRPCs != 2 {
		t.Fatalf("status %d, counters %+v -> %+v, want 2 exchanges bringing 2 values frames", w.status, before, after)
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("frontend half of a /v1/topk over two exchanges: %.0f allocs", allocs)
	if allocs > 250 {
		t.Fatalf("frontend /v1/topk allocates %.0f/op, want <= 250", allocs)
	}
}
