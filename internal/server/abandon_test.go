package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/dist"
	"github.com/trajcover/trajcover/internal/server"
)

// TestExchangeAbandonedFrameStops: a frontend whose RPC timeout passes
// closes its exchange connection, and the backend notices at once: the
// frame on it — here waiting for the backend's one slot, which the test
// holds — has its context cancelled, leaves the queue and gives its gate
// slot back, long before its own timeout_ms (30 s), and never runs.
func TestExchangeAbandonedFrameStops(t *testing.T) {
	srv, backend := oneSlotBackend(t, 295, nil)
	const rpcTimeout = 200 * time.Millisecond
	fe, err := dist.NewFrontend(dist.FrontendConfig{
		Groups:        []dist.Group{{Members: []string{backend.URL}}},
		RPCTimeout:    rpcTimeout,
		MaxTimeout:    time.Minute,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	frontend := httptest.NewServer(fe.Handler())
	defer frontend.Close()

	release := server.BlockSlots(t, srv, 1)
	defer release()
	body, err := json.Marshal(server.QueryRequest{
		Facilities: []server.FacilityJSON{{ID: 1, Stops: [][2]float64{{500, 500}, {600, 600}}}},
		K:          1, Psi: 50, TimeoutMS: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := frontend.Client().Post(frontend.URL+server.PathTopK, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("a read whose member never answers within RPCTimeout: %d %s, want 504", resp.StatusCode, got)
	}
	answered := time.Since(start)
	for server.Waiting(srv) != 0 || srv.Stats().Tenants["default"].Gate.Inflight != 0 {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("5 s after the read the abandoned frame still waits (%d waiting, gate %+v)", server.Waiting(srv), srv.Stats().Tenants["default"].Gate)
		}
		time.Sleep(time.Millisecond)
	}
	if st := srv.Stats().Endpoints[server.PathExchange]; st.Requests != 1 || st.DeadlineExceeded != 1 {
		t.Fatalf("/statsz exchange counters %+v, want the frame counted as one request that ended unanswered", st)
	}
	t.Logf("the frontend answered 504 after %v; the backend's frame left the queue %v after the read began", answered, time.Since(start))
}

// oneSlotBackend is a backend server with one slot over 200 two-point
// trips drawn from seed, served over loopback; accepted, when non-nil,
// counts the connections it accepts.
func oneSlotBackend(t *testing.T, seed int64, accepted *atomic.Int64) (*server.Server, *httptest.Server) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var users []*trajcover.Trajectory
	for id := 0; id < 200; id++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		u, err := trajcover.NewTrajectory(trajcover.ID(id), []trajcover.Point{trajcover.Pt(x, y), trajcover.Pt(x+5, y+5)})
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, u)
	}
	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{Bounds: trajcover.Rect{MaxX: 1000, MaxY: 1000}})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Config{Workers: 1, QueueDepth: 4, MaxTimeout: time.Minute})
	backend := httptest.NewUnstartedServer(srv.Handler())
	if accepted != nil {
		backend.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				accepted.Add(1)
			}
		}
	}
	backend.Start()
	t.Cleanup(func() { backend.Close(); srv.Close() })
	return srv, backend
}

// TestFrontendClientGone: a client that abandons its /v1/topk through the
// frontend while each group's frame waits in its backend's queue — the
// test holds every slot, and the read's deadline and RPC timeout are 30 s
// off — ends the read's exchanges at once: the frontend expires their
// connections, each backend sees its connection close, and its frame
// leaves the queue and gives its gate slot back within a second, with the
// slots still held, so nothing but the client leaving ended it. The frame
// never runs, no goroutine outlives the request, and the tier answers the
// next read on fresh connections, since the abandoned read's were closed.
func TestFrontendClientGone(t *testing.T) {
	var srvs []*server.Server
	var groups []dist.Group
	var accepted atomic.Int64
	for g := int64(0); g < 2; g++ {
		srv, backend := oneSlotBackend(t, 421+g, &accepted)
		srvs = append(srvs, srv)
		groups = append(groups, dist.Group{Members: []string{backend.URL}})
	}
	fe, err := dist.NewFrontend(dist.FrontendConfig{
		Groups:        groups,
		RPCTimeout:    30 * time.Second,
		MaxTimeout:    time.Minute,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	frontend := httptest.NewServer(fe.Handler())
	defer frontend.Close()
	body, err := json.Marshal(server.QueryRequest{
		Facilities: []server.FacilityJSON{{ID: 1, Stops: [][2]float64{{500, 500}, {600, 600}}}, {ID: 2, Stops: [][2]float64{{100, 900}}}},
		K:          2, Psi: 50, TimeoutMS: 30_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	topk := func() (int, []byte) {
		t.Helper()
		resp, err := frontend.Client().Post(frontend.URL+server.PathTopK, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, got
	}

	// Warm: one exchange connection per group exists before the count.
	if st, got := topk(); st != http.StatusOK {
		t.Fatalf("warm-up topk: %d %s", st, got)
	}
	baseline := runtime.NumGoroutine()
	var releases []func()
	for _, srv := range srvs {
		releases = append(releases, server.BlockSlots(t, srv, 1))
	}
	release := sync.OnceFunc(func() {
		for _, r := range releases {
			r()
		}
	})
	defer release()

	ctx, abandon := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, frontend.URL+server.PathTopK, bytes.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = frontend.Client().Do(req); err == nil {
				resp.Body.Close()
				err = fmt.Errorf("answered %s", resp.Status)
			}
		}
		done <- err
	}()
	wait := time.Now().Add(10 * time.Second)
	for g, srv := range srvs {
		for server.Waiting(srv) != 1 {
			if time.Now().After(wait) {
				t.Fatalf("group %d's frame never reached its backend's queue", g)
			}
			time.Sleep(time.Millisecond)
		}
	}
	abandon()
	left := time.Now()
	if err := <-done; err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("abandoned request: %v", err)
	}
	for g, srv := range srvs {
		for server.Waiting(srv) != 0 || srv.Stats().Tenants["default"].Gate.Inflight != 0 {
			if time.Since(left) > time.Second {
				t.Fatalf("1 s after the client left, group %d's frame still waits (%d waiting, gate %+v)", g, server.Waiting(srv), srv.Stats().Tenants["default"].Gate)
			}
			time.Sleep(time.Millisecond)
		}
		if st := srv.Stats().Endpoints[server.PathExchange]; st.Requests != 2 || st.DeadlineExceeded != 1 {
			t.Fatalf("group %d /statsz exchange counters %+v, want the warm-up frame and the abandoned one, which ended unanswered", g, st)
		}
	}
	t.Logf("every frame left its queue %v after the client left", time.Since(left))
	release()

	for runtime.NumGoroutine() > baseline {
		if time.Now().After(wait) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d before the abandoned request, %d after\n%s", baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the tier still answers, each group on a fresh connection.
	if st, got := topk(); st != http.StatusOK {
		t.Fatalf("topk after the abandoned one: %d %s", st, got)
	}
	if got := accepted.Load(); got != 2*int64(len(groups)) {
		t.Fatalf("backends accepted %d connections, want two per group: the first, and a fresh one after the abandoned read's was closed", got)
	}
}
