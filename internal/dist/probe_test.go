package dist

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/server"
)

// TestFrontendProbeSkipsAnsweringMember: a member that answers reads is
// not probed — every tick finds an exchange it answered within the last
// ProbeInterval — and once the reads stop it is probed again within
// three intervals, as an idle member always was.
func TestFrontendProbeSkipsAnsweringMember(t *testing.T) {
	const interval = 20 * time.Millisecond
	users := testUsers(200, 341)
	idx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	defer srv.Close()
	var mu sync.Mutex
	var probes []time.Time // when each /healthz arrived
	probesSince := func(t0 time.Time) (n int, first time.Time) {
		mu.Lock()
		defer mu.Unlock()
		for _, at := range probes {
			if at.After(t0) {
				if n == 0 {
					first = at
				}
				n++
			}
		}
		return n, first
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == server.PathHealth {
			mu.Lock()
			probes = append(probes, time.Now())
			mu.Unlock()
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	fe, err := NewFrontend(FrontendConfig{
		Groups:         []Group{{Members: []string{ts.URL}}},
		ProbeInterval:  interval,
		RPCTimeout:     10 * time.Second,
		DefaultTimeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(testFacilities(6, 5, 342)), K: 3, Psi: 40})
	read := func() {
		t.Helper()
		if st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body); st != http.StatusOK {
			t.Fatalf("topk: %d %s", st, got)
		}
	}

	read()
	// stalls counts the gaps of a whole interval between two answers: a
	// host that stalls the reads that long leaves the member idle for a
	// tick, and the rule probes it.
	start, last, reads, stalls := time.Now(), time.Now(), 0, 0
	for time.Since(start) < 12*interval {
		read()
		now := time.Now()
		if now.Sub(last) >= interval {
			stalls++
		}
		last, reads = now, reads+1
	}
	n, _ := probesSince(start)
	t.Logf("%d reads over %v: %d probes, %d stalls of an interval", reads, last.Sub(start).Round(time.Millisecond), n, stalls)
	if n > 1+stalls {
		t.Fatalf("a member answering every read was probed %d times in 12 intervals (%d stalls), want at most %d", n, stalls, 1+stalls)
	}

	// Idle: the first tick past a whole interval probes it.
	for give := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if n, at := probesSince(last); n > 0 {
			if idle := at.Sub(last); idle > 3*interval {
				t.Fatalf("an idle member was probed %v after its last read, want within %v", idle, 3*interval)
			}
			break
		}
		if time.Now().After(give) {
			t.Fatal("an idle member was never probed")
		}
	}
}

// TestFrontendDrainingMemberFailsOver: with the probe skipping members
// that answer reads, a member that begins draining is found by the reads
// themselves. Its next exchange is answered 503, which fails the read
// over to the other member of its group and removes the draining one on
// the spot: every read answers 200, and the first read that reaches the
// draining member leaves it unhealthy, so no later read asks it.
func TestFrontendDrainingMemberFailsOver(t *testing.T) {
	users := testUsers(200, 351)
	var srvs []*server.Server
	var members []string
	for i := 0; i < 2; i++ {
		idx, err := trajcover.NewIndex(users, liveOpts())
		if err != nil {
			t.Fatal(err)
		}
		srv := server.New(idx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		srvs, members = append(srvs, srv), append(members, ts.URL)
	}
	fe, err := NewFrontend(FrontendConfig{
		Groups:         []Group{{Members: members}},
		RPCTimeout:     10 * time.Second,
		DefaultTimeout: 10 * time.Second,
		ProbeInterval:  time.Hour, // only reads judge the members here
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fe.Close()
	fets := httptest.NewServer(fe.Handler())
	defer fets.Close()
	body := mustBody(t, server.QueryRequest{Facilities: server.FacilitiesJSON(testFacilities(6, 5, 352)), K: 3, Psi: 40})
	read := func(stage string) []byte {
		t.Helper()
		st, got, _ := postTo(t, fets.Client(), fets.URL+server.PathTopK, body)
		if st != http.StatusOK {
			t.Fatalf("%s: topk %d %s", stage, st, got)
		}
		return got
	}
	exchanges := func() uint64 { return srvs[0].Stats().Endpoints[server.PathExchange].Requests }
	healthy := func() bool { return fe.Stats().Groups[0].Members[0].Healthy }

	want := read("before the drain")
	for i := 0; i < 3; i++ {
		read("before the drain")
	}
	if exchanges() == 0 || !healthy() {
		t.Fatalf("before the drain: member 0 answered %d exchanges, healthy %v; want some, and healthy", exchanges(), healthy())
	}

	srvs[0].BeginDrain()
	reached := false
	for i := 0; i < 8; i++ {
		before := exchanges()
		got := read("draining")
		if string(got) != string(want) {
			t.Fatalf("read %d after the drain answered %s, want %s", i, got, want)
		}
		switch asked := exchanges() - before; {
		case asked > 0 && reached:
			t.Fatalf("read %d after the drain asked the removed member %d times", i, asked)
		case asked > 0:
			reached = true
			if healthy() {
				t.Fatalf("read %d reached the draining member and left it healthy", i)
			}
		}
	}
	if !reached {
		t.Fatal("no read reached the draining member")
	}
	if fe.Stats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", fe.Stats().Failovers)
	}
}
