package dist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
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
	"github.com/trajcover/trajcover/internal/shard"
)

var testBounds = trajcover.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func testUsers(n int, seed int64) []*trajcover.Trajectory {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajcover.Trajectory, n)
	for i := range out {
		ax, ay := rng.Float64()*1000, rng.Float64()*1000
		pts := []trajcover.Point{
			trajcover.Pt(clampF(ax+rng.NormFloat64()*80, 0, 1000), clampF(ay+rng.NormFloat64()*80, 0, 1000)),
			trajcover.Pt(clampF(ax+rng.NormFloat64()*80, 0, 1000), clampF(ay+rng.NormFloat64()*80, 0, 1000)),
		}
		u, err := trajcover.NewTrajectory(trajcover.ID(i), pts)
		if err != nil {
			panic(err)
		}
		out[i] = u
	}
	return out
}

func testFacilities(n, stops int, seed int64) []*trajcover.Facility {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajcover.Facility, n)
	for i := range out {
		ax, ay := rng.Float64()*1000, rng.Float64()*1000
		dx, dy := rng.NormFloat64(), rng.NormFloat64()
		pts := make([]trajcover.Point, stops)
		for j := range pts {
			pts[j] = trajcover.Pt(
				clampF(ax+float64(j)*20*dx+rng.NormFloat64()*10, 0, 1000),
				clampF(ay+float64(j)*20*dy+rng.NormFloat64()*10, 0, 1000),
			)
		}
		f, err := trajcover.NewFacility(trajcover.ID(10_000+i), pts)
		if err != nil {
			panic(err)
		}
		out[i] = f
	}
	return out
}

func liveOpts() trajcover.IndexOptions {
	return trajcover.IndexOptions{
		Ordering:    trajcover.ZOrdering,
		Beta:        8,
		Bounds:      testBounds,
		Shards:      2,
		Partitioner: trajcover.HashPartitioner(),
		Policy:      trajcover.LivePolicy{Manual: true},
	}
}

func mustBody(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// partitionUsers splits the corpus by RouteID — the same owner map the
// frontend forwards writes with.
func partitionUsers(users []*trajcover.Trajectory, nGroups int) [][]*trajcover.Trajectory {
	out := make([][]*trajcover.Trajectory, nGroups)
	for _, u := range users {
		g := RouteID(uint32(u.ID), nGroups)
		out[g] = append(out[g], u)
	}
	return out
}

// distEnv is a full in-process tier: nGroups backend tqserve cores each
// owning a RouteID slice of the corpus, a frontend over them, and one
// single-process reference server over the whole corpus.
type distEnv struct {
	t        *testing.T
	fe       *Frontend
	fets     *httptest.Server
	backends []*httptest.Server
	srvs     []*server.Server
	ref      *server.Server
	refTS    *httptest.Server
	client   *http.Client
	newConns []atomic.Int64 // connections each backend has accepted
}

func newDistEnv(t *testing.T, users []*trajcover.Trajectory, nGroups int, feCfg FrontendConfig) *distEnv {
	t.Helper()
	e := &distEnv{t: t, newConns: make([]atomic.Int64, nGroups)}
	parts := partitionUsers(users, nGroups)
	var groups []Group
	for g := 0; g < nGroups; g++ {
		idx, err := trajcover.NewIndex(parts[g], liveOpts())
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(idx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
		ts := httptest.NewUnstartedServer(srv.Handler())
		accepted := &e.newConns[g]
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				accepted.Add(1)
			}
		}
		ts.Start()
		e.srvs = append(e.srvs, srv)
		e.backends = append(e.backends, ts)
		groups = append(groups, Group{Members: []string{ts.URL}})
	}
	refIdx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	e.ref = server.New(refIdx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	e.refTS = httptest.NewServer(e.ref.Handler())

	feCfg.Groups = groups
	fe, err := NewFrontend(feCfg)
	if err != nil {
		t.Fatal(err)
	}
	e.fe = fe
	e.fets = httptest.NewServer(fe.Handler())
	e.client = e.fets.Client()
	t.Cleanup(func() {
		e.fets.Close()
		fe.Close()
		e.refTS.Close()
		e.ref.Close()
		for i, ts := range e.backends {
			ts.Close()
			e.srvs[i].Close()
		}
	})
	return e
}

func postTo(t *testing.T, client *http.Client, url string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, resp.Header
}

func (e *distEnv) post(path string, body []byte) (int, []byte, http.Header) {
	e.t.Helper()
	return postTo(e.t, e.client, e.fets.URL+path, body)
}

// TestFrontendByteIdentity is the distributed-exactness property: with
// every group healthy, topk and servicevalues through the frontend are
// byte-identical to the same requests against one process holding the
// whole corpus — across k, worker counts, and a write history flowing
// through the frontend's owner-routing.
func TestFrontendByteIdentity(t *testing.T) {
	users := testUsers(500, 301)
	e := newDistEnv(t, users[:400], 2, FrontendConfig{DefaultTimeout: 30 * time.Second})
	facs := testFacilities(14, 7, 302)
	fjs := server.FacilitiesJSON(facs)

	check := func(stage string, k, workers int) {
		t.Helper()
		body := mustBody(t, server.QueryRequest{Facilities: fjs, K: k, Psi: 40, Workers: workers})
		st, got, _ := e.post(server.PathTopK, body)
		if st != http.StatusOK {
			t.Fatalf("%s: frontend topk %d: %s", stage, st, got)
		}
		st, want, _ := postTo(t, e.refTS.Client(), e.refTS.URL+server.PathTopK, body)
		if st != http.StatusOK {
			t.Fatalf("%s: reference topk %d", stage, st)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: distributed topk differs from single process\n got: %s\nwant: %s", stage, got, want)
		}

		svBody := mustBody(t, server.QueryRequest{Facilities: fjs, Psi: 40, Workers: workers})
		st, got, _ = e.post(server.PathServiceValues, svBody)
		if st != http.StatusOK {
			t.Fatalf("%s: frontend servicevalues %d: %s", stage, st, got)
		}
		st, want, _ = postTo(t, e.refTS.Client(), e.refTS.URL+server.PathServiceValues, svBody)
		if st != http.StatusOK {
			t.Fatalf("%s: reference servicevalues %d", stage, st)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: distributed servicevalues differs from single process\n got: %s\nwant: %s", stage, got, want)
		}
	}

	check("initial k=5", 5, 0)
	check("initial k=1", 1, 2)
	check("initial k=14", 14, 3)

	// Writes through the frontend land on their owner group AND on the
	// reference; answers must stay identical.
	alive := map[uint32]bool{}
	for _, u := range users[:400] {
		alive[uint32(u.ID)] = true
	}
	for i, u := range users[400:450] {
		pts := make([][2]float64, len(u.Points))
		for j, p := range u.Points {
			pts[j] = [2]float64{p.X, p.Y}
		}
		b := mustBody(t, server.InsertRequest{ID: uint32(u.ID), Points: pts})
		if st, body, _ := e.post(server.PathInsert, b); st != http.StatusOK {
			t.Fatalf("insert %d: %d %s", u.ID, st, body)
		}
		if st, _, _ := postTo(t, e.refTS.Client(), e.refTS.URL+server.PathInsert, b); st != http.StatusOK {
			t.Fatal("reference insert failed")
		}
		alive[uint32(u.ID)] = true
		if i%3 == 0 {
			id := uint32(i * 7)
			del := mustBody(t, server.DeleteRequest{ID: id})
			st, body, _ := e.post(server.PathDelete, del)
			if st != http.StatusOK {
				t.Fatalf("delete: %d %s", st, body)
			}
			st2, body2, _ := postTo(t, e.refTS.Client(), e.refTS.URL+server.PathDelete, del)
			if st2 != http.StatusOK || !bytes.Equal(body, body2) {
				t.Fatalf("delete verdicts diverge: %s vs %s", body, body2)
			}
			delete(alive, id)
		}
	}
	check("after writes", 6, 0)

	// Owner routing: each backend holds exactly its RouteID slice of the
	// surviving corpus.
	var total int
	for g, srv := range e.srvs {
		n := srv.Index().Len()
		want := 0
		for id := range alive {
			if RouteID(id, 2) == g {
				want++
			}
		}
		if n != want {
			t.Fatalf("group %d holds %d trajectories, want %d", g, n, want)
		}
		total += n
	}
	if total != e.ref.Index().Len() {
		t.Fatalf("groups hold %d total, reference %d", total, e.ref.Index().Len())
	}

	// A duplicate insert's 409 comes back verbatim from the owner.
	var dup *trajcover.Trajectory
	for _, cand := range users[:450] {
		if alive[uint32(cand.ID)] {
			dup = cand
			break
		}
	}
	pts := make([][2]float64, len(dup.Points))
	for j, p := range dup.Points {
		pts[j] = [2]float64{p.X, p.Y}
	}
	st, body, _ := e.post(server.PathInsert, mustBody(t, server.InsertRequest{ID: uint32(dup.ID), Points: pts}))
	if st != http.StatusConflict {
		t.Fatalf("duplicate insert through frontend: %d %s, want 409", st, body)
	}

	// Every read cost one exchange per group and one values frame back;
	// no read asks for a bound, so none prunes.
	stats := e.fe.Stats()
	if stats.Exchanges == 0 || stats.ExactRPCs != stats.Exchanges || stats.BoundRPCs != 0 || stats.PrunedFacilities != 0 {
		t.Fatalf("scatter counters: %+v", stats)
	}
	if stats.Errors != 1 { // the 409 is the only error
		t.Fatalf("errors = %d, want 1 (the 409): %+v", stats.Errors, stats)
	}
}

// streamBackend is a fake backend speaking the exchange protocol:
// /healthz answers ok, POST /v1/exchange upgrades the connection, and
// every query frame on it is handed to answer with its ordinal, which
// writes the member's reply to c — or does anything else to c. The
// connection closes when the frontend's does, or when answer returns
// false.
func streamBackend(answer func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool) *httptest.Server {
	return httptest.NewServer(streamHandler(answer))
}

// streamHandler is streamBackend's handler.
func streamHandler(answer func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool) http.HandlerFunc {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == server.PathHealth {
			w.Write([]byte(`{"status":"ok"}`))
			return
		}
		c, br, ok := acceptExchange(w)
		if !ok {
			return
		}
		defer c.Close()
		for ordinal := uint16(1); ; ordinal++ {
			qf, err := readQueryFrame(br)
			if err != nil || !answer(c, qf, ordinal) {
				return
			}
		}
	})
}

// acceptExchange is the backend half of the exchange handshake.
func acceptExchange(w http.ResponseWriter) (net.Conn, *bufio.Reader, bool) {
	c, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		return nil, nil, false
	}
	if _, err := io.WriteString(c, "HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: "+server.ExchangeProtocol+"\r\n\r\n"); err != nil {
		c.Close()
		return nil, nil, false
	}
	return c, brw.Reader, true
}

// readQueryFrame reads and decodes one query frame.
func readQueryFrame(r io.Reader) (*server.QueryFrame, error) {
	var hdr [server.FrameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if server.FrameKind(hdr[4]) != server.FrameQuery {
		return nil, fmt.Errorf("frame of kind %d", hdr[4])
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	qf := new(server.QueryFrame)
	return qf, qf.Decode(payload)
}

// frameIDs lists a query frame's facility IDs.
func frameIDs(qf *server.QueryFrame) []uint32 {
	ids := make([]uint32, len(qf.Facilities))
	for i, f := range qf.Facilities {
		ids[i] = uint32(f.ID)
	}
	return ids
}

// valuesBackend is a stream backend answering every frame with the
// values a callback keyed by facility ID gives.
func valuesBackend(values func(ids []uint32) []float64) *httptest.Server {
	return streamBackend(func(c net.Conn, qf *server.QueryFrame, ordinal uint16) bool {
		_, err := c.Write(server.AppendFloatsFrame(nil, ordinal, values(frameIDs(qf))))
		return err == nil
	})
}

// dyingGroup is a fake backend that accepts an exchange and dies on it:
// the connection resets with nothing said (reply == nil), or after those
// bytes of a reply.
func dyingGroup(reply []byte) *httptest.Server {
	return streamBackend(func(c net.Conn, _ *server.QueryFrame, _ uint16) bool {
		if reply != nil {
			c.Write(reply)
		}
		resetConn(c)
		return false
	})
}

// tapped serves h on a listener that hands every connection it accepts
// to accepted (when not nil), and whose connections pass every exchange
// reply the server writes — a values or error frame, which the backend
// writes in one call — to tap first. The reply goes out when tap returns
// true; otherwise the write fails, tap having done what it wanted with
// the connection.
func tapped(h http.Handler, tap func(c net.Conn, reply []byte) bool, accepted func(net.Conn)) *httptest.Server {
	ts := httptest.NewUnstartedServer(h)
	ts.Listener = &tapListener{Listener: ts.Listener, tap: tap, accepted: accepted}
	ts.Start()
	return ts
}

type tapListener struct {
	net.Listener
	tap      func(c net.Conn, reply []byte) bool
	accepted func(net.Conn)
}

func (l *tapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if l.accepted != nil {
		l.accepted(c)
	}
	return &tapConn{Conn: c, tap: l.tap}, nil
}

type tapConn struct {
	net.Conn
	tap func(c net.Conn, reply []byte) bool
}

func (c *tapConn) Write(p []byte) (int, error) {
	kind := server.FrameKind(0)
	if len(p) >= server.FrameHeaderLen && int(binary.LittleEndian.Uint32(p))+server.FrameHeaderLen == len(p) {
		kind = server.FrameKind(p[4])
	}
	if (kind == server.FrameValues || kind == server.FrameError) && c.tap != nil && !c.tap(c.Conn, p) {
		return 0, net.ErrClosed
	}
	return c.Conn.Write(p)
}

// TestFrontendPartialMatrix is the degradation contract, table-driven:
// the same read against (a) a dead group, (b) a deadline-starved group,
// and (c) a group that dies holding the request, before or in the middle
// of its reply, answers exactly per the contract — default mode fails
// with the right status, ?partial=1 serves the surviving groups' exact
// answer with the partial flag: a group answers wholly or is missing.
func TestFrontendPartialMatrix(t *testing.T) {
	users := testUsers(300, 311)
	facs := testFacilities(8, 6, 312)
	fjs := server.FacilitiesJSON(facs)
	parts := partitionUsers(users, 2)

	// Group 0 is a real backend; group 1's behavior is the table knob.
	mkReal := func(t *testing.T, us []*trajcover.Trajectory) (*httptest.Server, *server.Server) {
		idx, err := trajcover.NewIndex(us, liveOpts())
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(idx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
		return httptest.NewServer(srv.Handler()), srv
	}

	// The surviving group's own exact answers — what partial mode must
	// serve byte-for-byte (values) / result-for-result (topk).
	survivorIdx, err := trajcover.NewIndex(parts[0], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	survivorVals, err := survivorIdx.ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	survivorTop, err := survivorIdx.TopK(facs, 4, q)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		// group1 returns the second group's base URL and a cleanup.
		group1     func(t *testing.T) (string, func())
		wantStatus int  // default-mode status
		wantRetry  bool // default-mode Retry-After present
	}{
		{
			name: "group down",
			group1: func(t *testing.T) (string, func()) {
				return downMember(t), func() {} // reset from the first RPC
			},
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  true,
		},
		{
			name: "group deadline-starved",
			group1: func(t *testing.T) (string, func()) {
				ts := streamBackend(func(c net.Conn, _ *server.QueryFrame, _ uint16) bool {
					// Hang until the caller gives up.
					io.Copy(io.Discard, c)
					return false
				})
				return ts.URL, ts.Close
			},
			wantStatus: http.StatusGatewayTimeout,
		},
		{
			// Group 1 takes the query frame and the connection drops: a
			// retryable 503, never a 504.
			name:       "mid-merge death",
			group1:     func(t *testing.T) (string, func()) { ts := dyingGroup(nil); return ts.URL, ts.Close },
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  true,
		},
		{
			// ... or it drops in the middle of the reply, half a values
			// frame already out: still a group that is missing, never a
			// top k over half a sum.
			name: "mid-round death",
			group1: func(t *testing.T) (string, func()) {
				ts := dyingGroup(server.AppendFloatsFrame(nil, 1, make([]float64, len(facs)))[:8+8*len(facs)/2])
				return ts.URL, ts.Close
			},
			wantStatus: http.StatusServiceUnavailable,
			wantRetry:  true,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts0, srv0 := mkReal(t, parts[0])
			defer func() { ts0.Close(); srv0.Close() }()
			url1, cleanup1 := tc.group1(t)
			defer cleanup1()

			fe, err := NewFrontend(FrontendConfig{
				Groups:         []Group{{Members: []string{ts0.URL}}, {Members: []string{url1}}},
				RPCTimeout:     500 * time.Millisecond,
				DefaultTimeout: 5 * time.Second,
				ProbeInterval:  time.Hour, // keep probes out of the picture
			})
			if err != nil {
				t.Fatal(err)
			}
			defer fe.Close()
			fets := httptest.NewServer(fe.Handler())
			defer fets.Close()

			topkBody := mustBody(t, server.QueryRequest{Facilities: fjs, K: 4, Psi: 40})
			svBody := mustBody(t, server.QueryRequest{Facilities: fjs, Psi: 40})

			// Default mode: the contracted failure status.
			st, body, hdr := postTo(t, fets.Client(), fets.URL+server.PathTopK, topkBody)
			if st != tc.wantStatus {
				t.Fatalf("default topk: %d %s, want %d", st, body, tc.wantStatus)
			}
			if tc.wantRetry && hdr.Get("Retry-After") != server.RetryAfter {
				t.Fatalf("default topk %d without Retry-After", st)
			}
			st, body, _ = postTo(t, fets.Client(), fets.URL+server.PathServiceValues, svBody)
			if st != tc.wantStatus {
				t.Fatalf("default servicevalues: %d %s, want %d", st, body, tc.wantStatus)
			}

			// ?partial=1.
			st, body, _ = postTo(t, fets.Client(), fets.URL+server.PathTopK+"?partial=1", topkBody)
			if st != http.StatusOK {
				t.Fatalf("partial topk: %d %s", st, body)
			}
			var pt PartialTopKResponse
			if err := json.Unmarshal(body, &pt); err != nil {
				t.Fatal(err)
			}
			if !pt.Partial || len(pt.MissingGroups) != 1 || pt.MissingGroups[0] != 1 {
				t.Fatalf("partial topk flags: %s", body)
			}
			if len(pt.Results) != len(survivorTop) {
				t.Fatalf("partial topk %d results, survivor answers %d", len(pt.Results), len(survivorTop))
			}
			for i, r := range pt.Results {
				if r.ID != uint32(survivorTop[i].Facility.ID) || r.Service != survivorTop[i].Service {
					t.Fatalf("partial topk[%d] = (%d, %v), survivor (%d, %v)",
						i, r.ID, r.Service, survivorTop[i].Facility.ID, survivorTop[i].Service)
				}
			}

			st, body, _ = postTo(t, fets.Client(), fets.URL+server.PathServiceValues+"?partial=1", svBody)
			if st != http.StatusOK {
				t.Fatalf("partial servicevalues: %d %s", st, body)
			}
			var pv PartialValuesResponse
			if err := json.Unmarshal(body, &pv); err != nil {
				t.Fatal(err)
			}
			if !pv.Partial || len(pv.MissingGroups) != 1 || pv.MissingGroups[0] != 1 {
				t.Fatalf("partial servicevalues flags: %s", body)
			}
			for i, v := range pv.Values {
				if v != survivorVals[i] {
					t.Fatalf("partial value[%d] = %v, survivor %v", i, v, survivorVals[i])
				}
			}
		})
	}
}

// TestFrontendIntraGroupFailover: a group whose primary is dead still
// answers reads from its replica member, and writes to that group are
// 503 (replicas are not write-capable owners).
func TestFrontendIntraGroupFailover(t *testing.T) {
	users := testUsers(200, 321)
	facs := testFacilities(6, 5, 322)
	parts := partitionUsers(users, 2)

	idxA, err := trajcover.NewIndex(parts[0], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srvA := server.New(idxA, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	defer srvA.Close()
	// "Replica": an identically stocked second member of group 0.
	idxA2, err := trajcover.NewIndex(parts[0], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srvA2 := server.New(idxA2, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	defer srvA2.Close()
	idxB, err := trajcover.NewIndex(parts[1], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srvB := server.New(idxB, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	defer srvB.Close()

	tsA, killA := killable(srvA.Handler())
	defer tsA.Close()
	tsA2 := httptest.NewServer(srvA2.Handler())
	defer tsA2.Close()
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()

	fe, err := NewFrontend(FrontendConfig{
		Groups:         []Group{{Members: []string{tsA.URL, tsA2.URL}}, {Members: []string{tsB.URL}}},
		RPCTimeout:     500 * time.Millisecond,
		DefaultTimeout: 10 * time.Second,
		ProbeInterval:  time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()

	// Kill group 0's primary. Reads must fail over to the replica and
	// stay complete (not partial).
	killA()
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: 3, Psi: 40})
	// Two reads: the round-robin cursor starts one of them on the dead
	// primary.
	for i := 0; i < 2; i++ {
		st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body)
		if st != http.StatusOK {
			t.Fatalf("topk with dead primary: %d %s", st, got)
		}
		if strings.Contains(string(got), `"partial":true`) {
			t.Fatalf("failover answer flagged partial: %s", got)
		}
	}
	if fe.Stats().Failovers == 0 {
		t.Fatal("failover counter never moved")
	}

	// A write owned by group 0 has no live primary: transient 503 with
	// the retry hint — never silently written to a replica.
	var ownedBy0 uint32
	for id := uint32(100000); ; id++ {
		if RouteID(id, 2) == 0 {
			ownedBy0 = id
			break
		}
	}
	st, got, hdr := postTo(t, fets.Client(), fets.URL+server.PathInsert,
		mustBody(t, server.InsertRequest{ID: ownedBy0, Points: [][2]float64{{1, 1}, {2, 2}}}))
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") != server.RetryAfter {
		t.Fatalf("write to dead primary: %d %s (Retry-After %q), want 503+hint", st, got, hdr.Get("Retry-After"))
	}
	// Group 1 writes still land.
	var ownedBy1 uint32
	for id := uint32(100000); ; id++ {
		if RouteID(id, 2) == 1 {
			ownedBy1 = id
			break
		}
	}
	st, got, _ = postTo(t, fets.Client(), fets.URL+server.PathInsert,
		mustBody(t, server.InsertRequest{ID: ownedBy1, Points: [][2]float64{{1, 1}, {2, 2}}}))
	if st != http.StatusOK {
		t.Fatalf("write to live group: %d %s", st, got)
	}
}

// TestFrontendWriteDeadline: a write whose own timeout_ms runs out against
// a slow primary is a 504 — the request's deadline, not the primary's
// failure — so the primary stays in the map: /healthz still says ok.
func TestFrontendWriteDeadline(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer slow.Close()
	fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: []string{slow.URL}}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()

	st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathInsert,
		mustBody(t, server.InsertRequest{ID: 7, Points: [][2]float64{{1, 1}, {2, 2}}, TimeoutMS: 1}))
	if st != http.StatusGatewayTimeout {
		t.Fatalf("1 ms write against a slow primary: %d %s, want 504", st, got)
	}
	resp, err := fets.Client().Get(fets.URL + server.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var health FrontendHealth
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz says %q after a write timed out on its own deadline: %+v", health.Status, health)
	}
}

// TestFrontendProbeRemovalReadmission: the probe loop removes a member
// that stops answering /healthz and readmits it when it recovers,
// surfacing both through /healthz ("degraded" vs "ok") and the log.
func TestFrontendProbeRemovalReadmission(t *testing.T) {
	users := testUsers(100, 331)
	idx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Config{Workers: 1, QueueDepth: 8})
	defer srv.Close()

	var down atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	var logMu sync.Mutex
	var logs []string
	fe, err := NewFrontend(FrontendConfig{
		Groups:        []Group{{Members: []string{ts.URL}}},
		ProbeInterval: 20 * time.Millisecond,
		RPCTimeout:    time.Second,
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()

	waitHealth := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			resp, err := fets.Client().Get(fets.URL + server.PathHealth)
			if err != nil {
				t.Fatal(err)
			}
			var h FrontendHealth
			json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if h.Status == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("health never became %q (now %q)", want, h.Status)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	waitHealth("ok")
	down.Store(true)
	waitHealth("degraded")
	down.Store(false)
	waitHealth("ok")

	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "removed") || !strings.Contains(joined, "readmitted") {
		t.Fatalf("probe transitions not logged: %q", joined)
	}
}

// TestFrontendDrainAndLimits: drain flips healthz and rejects reads with
// Retry-After; oversized bodies are 413; bad JSON is 400 without any
// backend being asked.
func TestFrontendDrainAndLimits(t *testing.T) {
	users := testUsers(60, 341)
	e := newDistEnv(t, users, 2, FrontendConfig{MaxBodyBytes: 512})

	if st, body, _ := e.post(server.PathTopK, []byte(`{"facilities":`)); st != http.StatusBadRequest {
		t.Fatalf("bad json: %d %s", st, body)
	}
	big := `{"filler":"` + strings.Repeat("x", 2048) + `"}`
	if st, _, _ := e.post(server.PathTopK, []byte(big)); st != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body not 413")
	}
	resp, err := e.client.Get(e.fets.URL + server.PathTopK)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET topk: %d", resp.StatusCode)
	}

	e.fe.BeginDrain()
	resp, err = e.client.Get(e.fets.URL + server.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", resp.StatusCode)
	}
	st, _, hdr := e.post(server.PathTopK, mustBody(t, server.QueryRequest{
		Facilities: server.FacilitiesJSON(testFacilities(2, 3, 342)), K: 1, Psi: 40,
	}))
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") != server.RetryAfter {
		t.Fatalf("draining topk: %d, want 503+Retry-After", st)
	}
}

// TestRouteIDMatchesShardHash pins the frontend's owner map to the
// index's own hash partitioner — the invariant that makes a RouteID
// slice of the corpus exactly one backend's shard content.
func TestRouteIDMatchesShardHash(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 16} {
		for id := uint32(0); id < 5000; id++ {
			u, err := trajcover.NewTrajectory(trajcover.ID(id), []trajcover.Point{trajcover.Pt(1, 1), trajcover.Pt(2, 2)})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := RouteID(id, n), (shard.Hash{}).Assign(u, testBounds, n); got != want {
				t.Fatalf("RouteID(%d, %d) = %d, shard.Hash = %d", id, n, got, want)
			}
		}
	}
}

// TestParseMap pins the -backends grammar.
func TestParseMap(t *testing.T) {
	groups, err := ParseMap("http://a:8080|http://a:8081/,http://b:8080")
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0].Members) != 2 || len(groups[1].Members) != 1 {
		t.Fatalf("parsed %+v", groups)
	}
	if groups[0].Members[1] != "http://a:8081" {
		t.Fatalf("trailing slash kept: %q", groups[0].Members[1])
	}
	for _, bad := range []string{"", ",", "http://a|,http://b", "ftp://a:1", "a:8080"} {
		if _, err := ParseMap(bad); err == nil {
			t.Fatalf("ParseMap(%q) accepted", bad)
		}
	}
}

// downMember is the base URL of a member that is down for the whole
// test: a listener that stays bound — so no other process can take its
// port and answer in its place, as one can once a closed test server has
// given the port up — and resets every connection it accepts.
func downMember(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			resetConn(c)
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-done
	})
	return "http://" + ln.Addr().String()
}

// resetConn closes c with a reset, as the kernel closes a killed
// process's sockets.
func resetConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// killable serves h until kill is called, and from then on resets every
// connection a request arrives on, kept alive or new, while its listener
// stays bound (see downMember).
func killable(h http.Handler) (ts *httptest.Server, kill func()) {
	var dead atomic.Bool
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !dead.Load() {
			h.ServeHTTP(w, r)
			return
		}
		c, _, err := http.NewResponseController(w).Hijack()
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		resetConn(c)
	}))
	return ts, func() { dead.Store(true) }
}

// countingBody is a request body that counts the reads made of it.
type countingBody struct{ reads int }

func (b *countingBody) Read([]byte) (int, error) { b.reads++; return 0, io.EOF }
func (b *countingBody) Close() error             { return nil }

// TestFrontendRefusesDeclaredOversizedBody: a body that declares more
// than MaxBodyBytes is a 413 before a byte of it is read, on the reads
// and the writes — the error names the limit, the connection closes, and
// nothing is decoded or sent to a backend.
func TestFrontendRefusesDeclaredOversizedBody(t *testing.T) {
	fe, err := NewFrontend(FrontendConfig{
		Groups:        []Group{{Members: []string{downMember(t)}}},
		MaxBodyBytes:  512,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	for _, path := range []string{server.PathTopK, server.PathServiceValues, server.PathInsert, server.PathDelete} {
		body := &countingBody{}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = 513
		w := httptest.NewRecorder()
		fe.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d (%s), want 413", path, w.Code, w.Body)
		}
		if body.reads != 0 {
			t.Fatalf("%s: the body was read %d times before the 413", path, body.reads)
		}
		var er server.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "512-byte limit") || !strings.Contains(er.Error, "513 bytes") {
			t.Fatalf("%s: 413 body %s (%v), want the declared length and the limit", path, w.Body, err)
		}
		if w.Header().Get("Connection") != "close" {
			t.Fatalf("%s: 413 leaves the connection open over an unread body", path)
		}
	}
	if st := fe.Stats(); st.Requests != 4 || st.Errors != 4 || st.Exchanges != 0 || st.Failovers != 0 {
		t.Fatalf("stats %+v: want four refused requests and nothing sent", st)
	}
}
