package server_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
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
	rng := rand.New(rand.NewSource(295))
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
	backend := httptest.NewServer(srv.Handler())
	defer func() { backend.Close(); srv.Close() }()
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
