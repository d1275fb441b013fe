package dist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// churningBackend is a backend test double for the epoch pin: a real
// server whose index takes the next write of a script before every
// /v1/* request it serves and before every read of such a request's
// body — so a write lands between every pair of frames of an exchange
// (and, where a read is several requests, between every pair of those).
type churningBackend struct {
	srv *server.Server

	mu      sync.Mutex
	script  []func(*trajcover.LiveShardedIndex) error
	applied int
	err     error
}

func (b *churningBackend) churn() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.applied < len(b.script) && b.err == nil {
		b.err = b.script[b.applied](b.srv.Index())
		b.applied++
	}
}

// progress reports how many writes have landed, and the first failure.
func (b *churningBackend) progress() (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.applied, b.err
}

type churningBody struct {
	io.ReadCloser
	b *churningBackend
}

func (cb churningBody) Read(p []byte) (int, error) {
	cb.b.churn()
	return cb.ReadCloser.Read(p)
}

func (b *churningBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		b.churn()
		r.Body = churningBody{r.Body, b}
	}
	b.srv.Handler().ServeHTTP(w, r)
}

// The hub: one stop every test facility passes through and every
// scripted trip starts and ends at, so one such trip more or less moves
// every facility's value by one — which is what makes an answer mixed
// from two epochs visible.
var hub = trajcover.Pt(500, 500)

func hubTrip(t *testing.T, id uint32) *trajcover.Trajectory {
	t.Helper()
	u, err := trajcover.NewTrajectory(trajcover.ID(id), []trajcover.Point{hub, trajcover.Pt(hub.X+1, hub.Y+1)})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// hubFacilities is n routes of the hub plus four random stops each.
func hubFacilities(t *testing.T, n int, seed int64) []*trajcover.Facility {
	t.Helper()
	var facs []*trajcover.Facility
	for i, f := range testFacilities(n, 4, seed) {
		withHub, err := trajcover.NewFacility(trajcover.ID(9000+i), append([]trajcover.Point{hub}, f.Stops...))
		if err != nil {
			t.Fatal(err)
		}
		facs = append(facs, withHub)
	}
	return facs
}

// TestFrontendTopKOneEpochPerGroup is the exchange's epoch pin, end to
// end: while each backend's corpus changes between every pair of frames,
// every /v1/topk answer through the frontend must be the answer over ONE
// acknowledged prefix of each group's write history — byte-identical to
// a fresh single-process build of those prefixes — never bounds from one
// epoch and round values from later ones.
//
// Every scripted write inserts (or deletes again) a hub trip, so an
// answer assembled from different epochs gives facilities evaluated in
// different rounds different offsets, which no single prefix pair
// reproduces.
func TestFrontendTopKOneEpochPerGroup(t *testing.T) {
	const nGroups, scriptLen, k, psi = 2, 48, 4, 30.0
	users := testUsers(300, 401)
	parts := partitionUsers(users, nGroups)

	// Per group: the hub trips its script inserts, by IDs it owns.
	backends := make([]*churningBackend, nGroups)
	histories := make([][]func(corpus map[trajcover.ID]*trajcover.Trajectory), nGroups)
	var groups []Group
	for g := 0; g < nGroups; g++ {
		idx, err := trajcover.NewLiveShardedIndex(parts[g], liveOpts())
		if err != nil {
			t.Fatal(err)
		}
		b := &churningBackend{srv: server.New(idx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})}
		var inserted []*trajcover.Trajectory
		for id := uint32(50_000); len(b.script) < scriptLen; id++ {
			if RouteID(id, nGroups) != g {
				continue
			}
			if len(b.script)%4 == 3 { // every fourth write takes the oldest hub trip out again
				u := inserted[0]
				inserted = inserted[1:]
				b.script = append(b.script, func(idx *trajcover.LiveShardedIndex) error {
					if found, err := idx.Delete(u.ID); err != nil || !found {
						return fmt.Errorf("delete %d: found %v, %v", u.ID, found, err)
					}
					return nil
				})
				histories[g] = append(histories[g], func(c map[trajcover.ID]*trajcover.Trajectory) { delete(c, u.ID) })
				continue
			}
			u := hubTrip(t, id)
			inserted = append(inserted, u)
			b.script = append(b.script, func(idx *trajcover.LiveShardedIndex) error { return idx.Insert(u) })
			histories[g] = append(histories[g], func(c map[trajcover.ID]*trajcover.Trajectory) { c[u.ID] = u })
		}
		ts := httptest.NewServer(b)
		defer func() { ts.Close(); b.srv.Close() }()
		backends[g] = b
		groups = append(groups, Group{Members: []string{ts.URL}})
	}
	fe, err := NewFrontend(FrontendConfig{Groups: groups, DefaultTimeout: 30 * time.Second, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()

	facs := hubFacilities(t, 32, 402)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: psi}

	// corpusAt is group g's corpus after the first p writes of its script.
	corpusAt := func(g, p int) []*trajcover.Trajectory {
		c := map[trajcover.ID]*trajcover.Trajectory{}
		for _, u := range parts[g] {
			c[u.ID] = u
		}
		for _, op := range histories[g][:p] {
			op(c)
		}
		out := make([]*trajcover.Trajectory, 0, len(c))
		for _, u := range c {
			out = append(out, u)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
		return out
	}
	// vals[g][p]: every facility's exact value over corpusAt(g, p).
	vals := make([][][]float64, nGroups)
	for g := range vals {
		for p := 0; p <= scriptLen; p++ {
			idx, err := trajcover.NewLiveShardedIndex(corpusAt(g, p), liveOpts())
			if err != nil {
				t.Fatal(err)
			}
			v, err := idx.ServiceValues(facs, q, 1)
			if err != nil {
				t.Fatal(err)
			}
			vals[g] = append(vals[g], v)
		}
	}
	if vals[0][0][0] == vals[0][3][0] {
		t.Fatal("the scripted writes do not move the facilities' values: the pin would never be exercised")
	}
	// prefixPair finds prefixes whose summed values rank to exactly the
	// answered (ID, value) list.
	prefixPair := func(got []server.RankedJSON) (int, int, bool) {
		ranked := make([]server.RankedJSON, len(facs))
		for p0 := range vals[0] {
			for p1 := range vals[1] {
				for i, f := range facs {
					ranked[i] = server.RankedJSON{ID: uint32(f.ID), Service: vals[0][p0][i] + vals[1][p1][i]}
				}
				sort.Slice(ranked, func(a, b int) bool {
					if ranked[a].Service != ranked[b].Service {
						return ranked[a].Service > ranked[b].Service
					}
					return ranked[a].ID < ranked[b].ID
				})
				match := len(got) == k
				for i := 0; match && i < k; i++ {
					match = ranked[i] == got[i]
				}
				if match {
					return p0, p1, true
				}
			}
		}
		return 0, 0, false
	}

	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(facs), K: k, Psi: psi})
	for read := 0; read < 3; read++ {
		var before, after [nGroups]int
		for g, b := range backends {
			before[g], _ = b.progress()
		}
		st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body)
		if st != http.StatusOK {
			t.Fatalf("read %d: topk %d %s", read, st, got)
		}
		for g, b := range backends {
			var err error
			if after[g], err = b.progress(); err != nil {
				t.Fatalf("group %d script: %v", g, err)
			}
			if after[g]-before[g] < 4 {
				t.Fatalf("read %d: only %d writes landed on group %d while it was answered: the churn is not interleaving", read, after[g]-before[g], g)
			}
		}
		var tr server.TopKResponse
		if err := json.Unmarshal(got, &tr); err != nil {
			t.Fatal(err)
		}
		p0, p1, ok := prefixPair(tr.Results)
		if !ok {
			t.Fatalf("read %d: the answer matches no pair of acknowledged prefixes — a mixture of epochs:\n%s\n(writes applied while it was answered: group 0 %d..%d, group 1 %d..%d)",
				read, got, before[0], after[0], before[1], after[1])
		}
		// And literally: a fresh single-process build of those two prefixes.
		fresh, err := trajcover.NewLiveShardedIndex(append(corpusAt(0, p0), corpusAt(1, p1)...), liveOpts())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.TopK(facs, k, q)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, server.MarshalTopKResponse(want)) {
			t.Fatalf("read %d: answer differs from a fresh build of prefixes (%d, %d)\n got: %s\nwant: %s", read, p0, p1, got, server.MarshalTopKResponse(want))
		}
	}
}
