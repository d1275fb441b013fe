package dist

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

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

// TestFrontendMidExchangeLoss: the member serving a group dies in the
// middle of its reply — half its values frame is out, the rest never
// comes — with a replica behind it that lags: it lacks writes the dead
// member had. The member is failed over within the group, once, and
// since an exchange is one frame each way nothing of the dead member's
// is left to splice: the answer is byte-identical to the replica's own
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
	primary := tapped(newBackend(t, ahead).Handler(), func(c net.Conn, reply []byte) bool {
		killed.Add(1)
		c.Write(reply[:len(reply)/2]) // half the values frame goes out; the rest never does
		// As a killed process goes: the socket resets under everyone.
		resetConn(c)
		return false
	}, nil)
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
		t.Fatalf("%d exchanges began a reply and %d values frames came back for four reads on two groups and one death, want 9 and 8", stats.Exchanges, stats.ExactRPCs)
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
			if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") != server.RetryAfter {
				t.Fatalf("%s with no member left: %d %s (Retry-After %q), want 503 + Retry-After", path, st, got, hdr.Get("Retry-After"))
			}
			return
		}
		wantPartial := mustBody(t, PartialTopKResponse{TopKResponse: server.TopKResponse{Results: toRankedJSON(survivor)}, Partial: true, MissingGroups: []int{0}})
		if st != http.StatusOK || !bytes.Equal(got, wantPartial) {
			t.Fatalf("%s with no member left: %d %s, want the other group's answer %s", path, st, got, wantPartial)
		}
	})
	if stats.PartialResponses != 2 {
		t.Fatalf("%d partial answers for two ?partial=1 reads with group 0 gone", stats.PartialResponses)
	}
}

// TestFrontendHostileReplies: a reply that is not one values frame of
// the count asked for — nor a well-formed error frame — is the member's
// failure: a retryable 503, the member removed, its connection closed —
// never an answer built from what did parse.
func TestFrontendHostileReplies(t *testing.T) {
	facs := testFacilities(3, 4, 461)
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: 2, Psi: 40})
	_, table, _, err := new(server.QueryBuffer).Decode(body, true)
	if err != nil {
		t.Fatal(err)
	}
	good := server.AppendFloatsFrame(nil, 1, []float64{3, 2, 1})
	for name, reply := range map[string][]byte{
		"nothing":             nil,
		"one value short":     server.AppendFloatsFrame(nil, 1, []float64{3, 2}),
		"one value over":      server.AppendFloatsFrame(nil, 1, []float64{3, 2, 1, 0}),
		"another ordinal":     server.AppendFloatsFrame(nil, 2, []float64{3, 2, 1}),
		"a query frame":       server.AppendQueryFrame(nil, table, server.QueryParams{}),
		"a retired kind":      {24, 0, 0, 0, 4, 0, 0, 0},
		"half the payload":    good[:len(good)-12],
		"half a header":       good[:5],
		"an error of 200":     server.AppendErrorFrame(nil, 1, http.StatusOK, false, []byte(`{}`)),
		"an unknown flag":     append(server.AppendErrorFrame(nil, 1, http.StatusServiceUnavailable, true, nil)[:10], 3, 0),
		"an error frame, cut": server.AppendErrorFrame(nil, 1, http.StatusServiceUnavailable, true, []byte(`{"error":"x"}`))[:14],
	} {
		var conns atomic.Int64
		ts := streamBackend(func(c net.Conn, _ *server.QueryFrame, _ uint16) bool {
			conns.Add(1)
			c.Write(reply)
			return false
		})
		fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: []string{ts.URL}}}, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		fets := httptest.NewServer(fe.Handler())
		for _, path := range []string{server.PathTopK, server.PathServiceValues} {
			st, got, hdr := postTo(t, fets.Client(), fets.URL+path, body)
			if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") != server.RetryAfter {
				t.Errorf("%s, %s: %d %s (Retry-After %q), want 503 + Retry-After", name, path, st, got, hdr.Get("Retry-After"))
			}
		}
		wantExchanges := uint64(2)
		if len(reply) == 0 {
			wantExchanges = 0
		}
		if stats := fe.Stats(); stats.Exchanges != wantExchanges || stats.ExactRPCs != 0 || stats.Failovers != 2 || stats.Groups[0].Healthy != 0 {
			t.Errorf("%s: %+v, want %d exchanges begun, no values frame accepted, the member removed", name, stats, wantExchanges)
		}
		if got := conns.Load(); got != 2 {
			t.Errorf("%s: two reads asked on %d connections, want a fresh one each", name, got)
		}
		fets.Close()
		fe.Close()
		ts.Close()
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
		n := &served[i]
		ts := tapped(newBackend(t, users).Handler(), func(net.Conn, []byte) bool {
			n.Add(1)
			return true
		}, nil)
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

// TestFrontendRetriesStaleConnection: a member that drops its idle
// exchange connections between two reads — as a restarted backend has —
// leaves the frontend holding dead ones. An exchange on such a
// connection fails before any reply byte comes, and is retried once on a
// fresh connection: the read is served, the member stays healthy, and
// nothing fails over. Both ways a connection can be dropped: closed, and
// reset.
func TestFrontendRetriesStaleConnection(t *testing.T) {
	users := testUsers(200, 471)
	var mu sync.Mutex
	var conns []net.Conn
	ts := tapped(newBackend(t, users).Handler(), nil, func(c net.Conn) {
		mu.Lock()
		conns = append(conns, c)
		mu.Unlock()
	})
	defer ts.Close()
	drop := func(how func(net.Conn)) {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			how(c)
		}
	}
	fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: []string{ts.URL}}}, DefaultTimeout: 30 * time.Second, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(testFacilities(8, 4, 472)), K: 3, Psi: 40})
	st, want, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body)
	if st != http.StatusOK {
		t.Fatalf("first read: %d %s", st, want)
	}
	for i, how := range []func(net.Conn){func(c net.Conn) { c.Close() }, resetConn} {
		drop(how)
		time.Sleep(20 * time.Millisecond) // the drop reaches the frontend's end
		if st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body); st != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("read %d after the member dropped its connections: %d %s, want %s", i+2, st, got, want)
		}
		mu.Lock()
		dialled := len(conns)
		mu.Unlock()
		if dialled != i+2 {
			t.Fatalf("read %d after the drop: %d connections dialled in all, want %d", i+2, dialled, i+2)
		}
	}
	if stats := fe.Stats(); stats.Failovers != 0 || stats.Errors != 0 || stats.Groups[0].Healthy != 1 {
		t.Fatalf("stats %+v: want no failover, no error, the member healthy", stats)
	}
}

// TestFrontendLateReplyNeverRead: a member that answers after RPCTimeout
// has lost that exchange, and its connection with it: the late reply is
// never read as the next exchange's answer, which goes out on a fresh
// connection.
func TestFrontendLateReplyNeverRead(t *testing.T) {
	var frames atomic.Int64
	ts := streamBackend(func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool {
		ids := frameIDs(qf)
		vals := make([]float64, len(ids))
		for i, id := range ids {
			vals[i] = fakeValue(id)
		}
		if frames.Add(1) == 1 {
			time.Sleep(400 * time.Millisecond) // past RPCTimeout
			for i := range vals {
				vals[i] = -1 // an answer no read may take
			}
		}
		c.Write(server.AppendFloatsFrame(nil, ordinal, vals))
		return true
	})
	defer ts.Close()
	fe, err := NewFrontend(FrontendConfig{
		Groups:         []Group{{Members: []string{ts.URL}}},
		RPCTimeout:     100 * time.Millisecond,
		DefaultTimeout: 10 * time.Second,
		ProbeInterval:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()
	facs := testFacilities(5, 3, 481)
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), Psi: 40})
	if st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathServiceValues, body); st != http.StatusGatewayTimeout {
		t.Fatalf("a member answering past RPCTimeout: %d %s, want 504", st, got)
	}
	time.Sleep(500 * time.Millisecond) // the late reply has gone out
	st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathServiceValues, body)
	var vals server.ValuesResponse
	if st != http.StatusOK || json.Unmarshal(got, &vals) != nil {
		t.Fatalf("the read after the late reply: %d %s", st, got)
	}
	for i, f := range facs {
		if vals.Values[i] != fakeValue(uint32(f.ID)) {
			t.Fatalf("the read after the late reply answered %v: the late reply was read", vals.Values)
		}
	}
	if got := frames.Load(); got != 2 {
		t.Fatalf("the member saw %d query frames, want 2", got)
	}
}

// TestFrontendStrayReplyNeverRead: a member that writes more than its
// reply — its values frame again, with other numbers, or a stray byte —
// leaves bytes on the connection that the next exchange on it reads
// first. They are refused as that exchange's reply (a reply carries the
// ordinal of the query it answers), so the read fails over, and is never
// answered with them; the read after it goes out on a fresh connection.
// Whether the refused read's query frame reaches the member before the
// frontend drops that connection is timing, so the member's connections
// are counted, not its frames: exactly two, the third read answered on
// the second and nothing else on it.
func TestFrontendStrayReplyNeverRead(t *testing.T) {
	facs := testFacilities(5, 3, 491)
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), Psi: 40})
	for name, stray := range map[string]func(ordinal uint16, n int) []byte{
		"the reply again": func(ordinal uint16, n int) []byte {
			wrong := make([]float64, n)
			for i := range wrong {
				wrong[i] = -1
			}
			return server.AppendFloatsFrame(nil, ordinal, wrong)
		},
		"an error frame": func(ordinal uint16, _ int) []byte {
			return server.AppendErrorFrame(nil, ordinal, http.StatusNotFound, false, []byte(`{"error":"stray"}`))
		},
		"a stray byte": func(uint16, int) []byte { return []byte{0} },
	} {
		var mu sync.Mutex
		var conns []string  // the member's exchange connections, as accepted
		var frames []string // the connection each query frame came on
		exchange := streamHandler(func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool {
			ids := frameIDs(qf)
			vals := make([]float64, len(ids))
			for i, id := range ids {
				vals[i] = fakeValue(id)
			}
			reply := server.AppendFloatsFrame(nil, ordinal, vals)
			mu.Lock()
			frames = append(frames, c.RemoteAddr().String())
			if len(frames) == 1 {
				reply = append(reply, stray(ordinal, len(ids))...)
			}
			mu.Unlock()
			_, err := c.Write(reply)
			return err == nil
		})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == server.PathExchange {
				mu.Lock()
				conns = append(conns, r.RemoteAddr)
				mu.Unlock()
			}
			exchange(w, r)
		}))
		fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: []string{ts.URL}}}, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		fets := httptest.NewServer(fe.Handler())
		var statuses [3]int
		var answers [3][]byte
		for read := range statuses {
			statuses[read], answers[read], _ = postTo(t, fets.Client(), fets.URL+server.PathServiceValues, body)
		}
		mu.Lock()
		onSecond := 0
		for _, c := range frames {
			if len(conns) > 1 && c == conns[1] {
				onSecond++
			}
		}
		if len(conns) != 2 || len(frames) == 0 || frames[0] != conns[0] || onSecond != 1 {
			t.Fatalf("%s: the member accepted %d exchange connections and saw %d query frames, %d on the second; want 2 connections, the third read alone on the second",
				name, len(conns), len(frames), onSecond)
		}
		mu.Unlock()
		for read, want := range []int{http.StatusOK, http.StatusServiceUnavailable, http.StatusOK} {
			st, got := statuses[read], answers[read]
			if st != want {
				t.Fatalf("%s: read %d answered %d %s, want %d", name, read, st, got, want)
			}
			if st != http.StatusOK {
				continue
			}
			var vals server.ValuesResponse
			if err := json.Unmarshal(got, &vals); err != nil {
				t.Fatal(err)
			}
			for i, f := range facs {
				if vals.Values[i] != fakeValue(uint32(f.ID)) {
					t.Fatalf("%s: read %d answered %v", name, read, vals.Values)
				}
			}
		}
		fets.Close()
		fe.Close()
		ts.Close()
	}
}

// TestFrontendStreamQueryRunsNoWork: the frontend refuses a
// /v1/servicevalues request whose query string names stream with the
// backends' own 400, at once and before any exchange — never a 200 of
// batch values a stream client would misread. So it does on a serving
// frontend (a plain read: 200), on one whose only member holds every
// exchange it gets (a plain read waits out its deadline: 504), and on a
// draining, closed one (a plain read: 503).
func TestFrontendStreamQueryRunsNoWork(t *testing.T) {
	facs := testFacilities(4, 4, 44)
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), Psi: 40, TimeoutMS: 300})
	var frames atomic.Int64
	var hold atomic.Bool
	release := make(chan struct{})
	ts := streamBackend(func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool {
		frames.Add(1)
		if hold.Load() {
			<-release
			return false
		}
		ids := frameIDs(qf)
		vals := make([]float64, len(ids))
		for i, id := range ids {
			vals[i] = fakeValue(id)
		}
		_, err := c.Write(server.AppendFloatsFrame(nil, ordinal, vals))
		return err == nil
	})
	defer ts.Close()
	defer close(release)
	fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: []string{ts.URL}}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()

	check := func(when string, plain int) {
		t.Helper()
		if status, got, _ := postTo(t, fets.Client(), fets.URL+server.PathServiceValues, body); status != plain {
			t.Fatalf("%s: plain servicevalues status %d (%s), want %d", when, status, got, plain)
		}
		seen, exchanges := frames.Load(), fe.Stats().Exchanges
		for _, query := range []string{"?stream=1", "?stream=1&chunk=4", "?chunk=4&stream=0", "?stream", "?partial=1&stream=1"} {
			start := time.Now()
			status, got, _ := postTo(t, fets.Client(), fets.URL+server.PathServiceValues+query, body)
			if status != http.StatusBadRequest || !strings.Contains(string(got), "without a query string") {
				t.Fatalf("%s: servicevalues%s status %d (%s), want 400 naming the batch body", when, query, status, got)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("%s: servicevalues%s answered after %v, want at once", when, query, elapsed)
			}
		}
		if frames.Load() != seen || fe.Stats().Exchanges != exchanges {
			t.Fatalf("%s: the stream queries reached the member: %d query frames, %d exchanges; %d and %d before them",
				when, frames.Load(), fe.Stats().Exchanges, seen, exchanges)
		}
	}
	check("serving", http.StatusOK)
	hold.Store(true)
	check("saturated", http.StatusGatewayTimeout)
	fe.BeginDrain()
	fe.Close()
	check("closed", http.StatusServiceUnavailable)
}

// frameEcho is a member that allocates nothing per exchange: a raw
// listener that answers the exchange handshake, then every query frame
// with the same values frame, numbered as the query's reply. It returns
// the member's base URL.
func frameEcho(t *testing.T, reply []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				if _, err := http.ReadRequest(br); err != nil {
					return
				}
				if _, err := io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+server.ExchangeProtocol+"\r\n\r\n"); err != nil {
					return
				}
				var hdr [server.FrameHeaderLen]byte
				payload := make([]byte, 1<<17)
				out := append([]byte(nil), reply...)
				for ordinal := uint16(1); ; ordinal++ {
					if _, err := io.ReadFull(br, hdr[:]); err != nil {
						return
					}
					n := int(binary.LittleEndian.Uint32(hdr[:]))
					if n > len(payload) {
						payload = make([]byte, n)
					}
					if _, err := io.ReadFull(br, payload[:n]); err != nil {
						return
					}
					binary.LittleEndian.PutUint16(out[5:], ordinal)
					if _, err := c.Write(out); err != nil {
						return
					}
				}
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
	return "http://" + ln.Addr().String()
}

type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(status int)      { w.status = status }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestExchangeAllocs pins one paper-default distributed read — 128
// facilities of 32 stops over two groups — over real loopback
// connections, counted process-wide, three ways:
//
//   - the backend per exchange frame: a real backend asked over an
//     exchange connection the frontend dialled, by a caller that
//     allocates nothing — the summed values (the frame's deadline is a
//     pooled context that arms no timer);
//   - the frontend per read: its handler driven straight, over members
//     that allocate nothing (frameEcho) — the body, its decode into one
//     facility table, the query frame and the answer's bytes live in a
//     pooled server.QueryBuffer, and the scatter's storage, the merge and
//     the ranking in a pooled read, so the count is the hook that ends
//     the exchanges if the client leaves (context.AfterFunc) and the
//     second group's goroutine; nothing is per facility;
//   - one whole /v1/topk, from a net/http client through the frontend to
//     two real backends: one HTTP request and response, and two frames
//     each way.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	users := testUsers(4000, 451)
	facs := testFacilities(128, 32, 452)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: 8, Psi: q.Psi})
	pin := func(what string, limit float64, run func()) {
		t.Helper()
		run()
		allocs := testing.AllocsPerRun(50, run)
		t.Logf("%s: %.0f allocs", what, allocs)
		if allocs > limit {
			t.Errorf("%s allocates %.0f/op, want <= %.0f", what, allocs, limit)
		}
	}

	parts := partitionUsers(users, 2)
	var groups []Group
	for g := range parts {
		ts := httptest.NewServer(newBackend(t, parts[g]).Handler())
		defer ts.Close()
		groups = append(groups, Group{Members: []string{ts.URL}})
	}

	// The backend per frame.
	m, err := newMember(groups[0].Members[0], time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	c, err := m.dial(context.Background(), time.Now().Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, table, _, err := new(server.QueryBuffer).Decode(body, true)
	if err != nil {
		t.Fatal(err)
	}
	frame := server.AppendQueryFrame(nil, table, server.QueryParams{Query: q, TimeoutMS: 60_000})
	reply := make([]byte, 8*len(facs))
	pin("backend per 128-facility exchange frame", 2, func() {
		c.asked++
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		if _, _, err := server.ReadReply(c, reply, len(facs), c.asked); err != nil {
			t.Fatal(err)
		}
	})

	// The frontend per read.
	values := server.AppendFloatsFrame(nil, 0, make([]float64, len(facs)))
	fe, err := NewFrontend(FrontendConfig{
		Groups:         []Group{{Members: []string{frameEcho(t, values)}}, {Members: []string{frameEcho(t, values)}}},
		DefaultTimeout: time.Minute,
		ProbeInterval:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, server.PathTopK, rd)
	w := &nullWriter{h: http.Header{}}
	before := fe.Stats()
	pin("frontend per /v1/topk over two exchanges", 4, func() {
		rd.Reset(body)
		w.status = 0
		fe.Handler().ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("frontend answered %d", w.status)
		}
	})
	if after := fe.Stats(); after.ExactRPCs-before.ExactRPCs != 2*(after.Requests-before.Requests) || after.Exchanges != after.ExactRPCs {
		t.Fatalf("counters %+v -> %+v, want 2 exchanges bringing 2 values frames a read", before, after)
	}

	// One whole /v1/topk.
	whole, err := NewFrontend(FrontendConfig{Groups: groups, DefaultTimeout: time.Minute, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer whole.Close()
	fets := httptest.NewServer(whole.Handler())
	defer fets.Close()
	client := fets.Client()
	answer := make([]byte, 0, 1<<12)
	pin("one two-group /v1/topk, process-wide", 110, func() {
		resp, err := client.Post(fets.URL+server.PathTopK, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		buf := bytes.NewBuffer(answer[:0])
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/topk: %d %s", resp.StatusCode, buf.Bytes())
		}
	})
}

// toRankedJSON is a library top-k answer in its wire form.
func toRankedJSON(res []trajcover.Ranked) []server.RankedJSON {
	out := make([]server.RankedJSON, len(res))
	for i, r := range res {
		out[i] = server.RankedJSON{ID: uint32(r.Facility.ID), Service: r.Service}
	}
	return out
}
