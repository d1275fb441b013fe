package dist

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/replog"
	"github.com/trajcover/trajcover/internal/server"
)

// edgeAnswer is what a client sees of an answer at the request edge.
type edgeAnswer struct {
	status                                     int
	allow, retryAfter, connection, contentType string
	body                                       string
}

// askRaw sends one request on a connection of its own and reads the
// answer.
func askRaw(t *testing.T, base, method, path string, body []byte) edgeAnswer {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(c, "%s %s HTTP/1.1\r\nHost: edge\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", method, path, len(body), body)
	resp, err := http.ReadResponse(bufio.NewReader(c), nil)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h := resp.Header
	connection := h.Get("Connection")
	if resp.Close { // ReadResponse takes "Connection: close" out of the header
		connection = "close"
	}
	return edgeAnswer{resp.StatusCode, h.Get("Allow"), h.Get("Retry-After"), connection, h.Get("Content-Type"), string(got)}
}

// TestEdgeAnswersMatchAcrossRoles: the three tqserve roles — a backend
// server, a frontend over it and a caught-up replica's wrapper — refuse
// the same bad requests with the same answer: status, the Allow,
// Retry-After, Connection and Content-Type headers, and body, except for
// the role's own word in the drain message. The replica wrapper's own
// refusals are pinned byte for byte.
func TestEdgeAnswersMatchAcrossRoles(t *testing.T) {
	// A small body limit: net/http itself closes a connection over a large
	// unread body, which would hide a 413 that does not ask it to.
	const maxBody = 1024
	serve := func(idx *trajcover.Index, h func(http.Handler) http.Handler, log *replog.Log) (*server.Server, *httptest.Server) {
		srv := server.New(idx, server.Config{Workers: 2, QueueDepth: 16, MaxBodyBytes: maxBody, ReplLog: log})
		ts := httptest.NewServer(h(srv.Handler()))
		t.Cleanup(func() { ts.Close(); srv.Close() })
		return srv, ts
	}
	same := func(h http.Handler) http.Handler { return h }
	idx, err := trajcover.NewIndex(testUsers(120, 491), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	primary, primTS := serve(idx, same, replog.New(replog.DefaultCap))
	fe, err := NewFrontend(FrontendConfig{Groups: []Group{{Members: []string{primTS.URL}}}, MaxBodyBytes: maxBody, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	feTS := httptest.NewServer(fe.Handler())
	defer feTS.Close()
	empty, err := trajcover.NewIndex(nil, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	var repSrv *server.Server
	rep := NewReplica(ReplicaConfig{Primary: primTS.URL, Policy: trajcover.LivePolicy{Manual: true}, PollWait: 100 * time.Millisecond,
		OnSwap: func(idx *trajcover.Index) { repSrv.SetIndex(idx) }})
	repSrv, repTS := serve(empty, func(h http.Handler) http.Handler { return ReplicaHandler(h, rep) }, nil)

	// Before its first catch-up the replica wrapper answers for itself.
	topk := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(testFacilities(3, 4, 492)), K: 2, Psi: 40})
	syncing := edgeAnswer{status: http.StatusServiceUnavailable, retryAfter: "1", contentType: "application/json",
		body: `{"error":"replica syncing: not caught up to the primary yet"}`}
	if got := askRaw(t, repTS.URL, http.MethodPost, server.PathTopK, topk); got != syncing {
		t.Fatalf("syncing replica's /v1/topk: %+v, want %+v", got, syncing)
	}
	syncingHealth := edgeAnswer{status: http.StatusServiceUnavailable, retryAfter: "1", contentType: "application/json",
		body: `{"status":"syncing"}`}
	if got := askRaw(t, repTS.URL, http.MethodGet, server.PathHealth, nil); got != syncingHealth {
		t.Fatalf("syncing replica's /healthz: %+v, want %+v", got, syncingHealth)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)
	waitUntil(t, "first catch-up", rep.Ready)
	readOnly := edgeAnswer{status: http.StatusForbidden, contentType: "application/json",
		body: `{"error":"replica is read-only: send writes to the primary (` + primTS.URL + `) or the frontend"}`}
	insert := mustBody(t, server.InsertRequest{ID: 90_001, Points: [][2]float64{{1, 1}, {2, 2}}})
	for _, path := range []string{server.PathInsert, server.PathDelete, server.PathCompact, server.PathCheckpoint} {
		if got := askRaw(t, repTS.URL, http.MethodPost, path, insert); got != readOnly {
			t.Fatalf("replica's %s: %+v, want %+v", path, got, readOnly)
		}
	}

	roles := []struct {
		name, word string // word: what the role calls itself draining
		url        string
		drain      func()
	}{
		{"server", "server", primTS.URL, primary.BeginDrain},
		{"frontend", "frontend", feTS.URL, fe.BeginDrain},
		{"replica", "server", repTS.URL, repSrv.BeginDrain},
	}
	cases := []struct {
		name   string
		method string
		body   []byte
		want   int
	}{
		{"GET", http.MethodGet, nil, http.StatusMethodNotAllowed},
		{"declared length past the limit", http.MethodPost, make([]byte, maxBody+1), http.StatusRequestEntityTooLarge},
		{"malformed JSON", http.MethodPost, []byte(`{"facilities":[{"id":1,`), http.StatusBadRequest},
		{"draining", http.MethodPost, topk, http.StatusServiceUnavailable},
	}
	for _, tc := range cases {
		var first edgeAnswer
		for i, role := range roles {
			if tc.name == "draining" {
				role.drain()
			}
			got := askRaw(t, role.url, tc.method, server.PathTopK, tc.body)
			if tc.name == "draining" {
				if !strings.Contains(got.body, role.word+" draining") {
					t.Errorf("the draining %s answers %q, which does not say %q", role.name, got.body, role.word+" draining")
				}
				got.body = strings.Replace(got.body, role.word+" draining", "draining", 1)
			}
			if got.status != tc.want {
				t.Errorf("%s to the %s: %+v, want status %d", tc.name, role.name, got, tc.want)
			}
			if i == 0 {
				first = got
				t.Logf("%s: %+v", tc.name, got)
			} else if got != first {
				t.Errorf("%s: the %s answers %+v, the server %+v", tc.name, role.name, got, first)
			}
		}
	}
}
