package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/replog"
	"github.com/trajcover/trajcover/internal/server"
)

// newPrimary builds a replicating tqserve core over the given corpus:
// a live index with a replication log wired into the server.
func newPrimary(t *testing.T, users []*trajcover.Trajectory, logCap int) (*server.Server, *httptest.Server) {
	t.Helper()
	idx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(idx, server.Config{
		Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second,
		ReplLog: replog.New(logCap),
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// newReplicaStack builds the serving side of a replica exactly as
// cmd/tqserve's -replica-of mode does: a placeholder index behind a
// server whose SetIndex is the replica's swap hook, wrapped in
// ReplicaHandler. Run is NOT started; the caller owns the follow loop.
func newReplicaStack(t *testing.T, primary string) (*Replica, *httptest.Server) {
	t.Helper()
	empty, err := trajcover.NewIndex(nil, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(empty, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	rep := NewReplica(ReplicaConfig{
		Primary:      primary,
		Policy:       trajcover.LivePolicy{Manual: true},
		PollWait:     100 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
		OnSwap:       srv.SetIndex,
	})
	ts := httptest.NewServer(ReplicaHandler(srv.Handler(), rep, time.Second))
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return rep, ts
}

func replStatus(t *testing.T, ts *httptest.Server) ReplicaStatus {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + PathReplStatus)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicaFollowAndServe is the replication happy path: a replica
// bootstraps from the primary's snapshot, tails its changes feed, and
// serves byte-identical answers — before catch-up it answers 503
// syncing, and writes answer 403 forever.
func TestReplicaFollowAndServe(t *testing.T) {
	users := testUsers(260, 401)
	facs := testFacilities(6, 5, 402)
	fjs := server.FacilitiesJSON(facs)
	srv, primTS := newPrimary(t, users[:200], replog.DefaultCap)
	rep, repTS := newReplicaStack(t, primTS.URL)

	topkBody := mustBody(t, server.QueryRequest{Facilities: fjs, K: 4, Psi: 40})

	// Before the follow loop starts: syncing, loudly.
	st, body, hdr := postTo(t, repTS.Client(), repTS.URL+server.PathTopK, topkBody)
	if st != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("pre-sync topk: %d %s, want 503+Retry-After", st, body)
	}
	if !strings.Contains(string(body), "syncing") {
		t.Fatalf("pre-sync topk body: %s", body)
	}
	resp, err := repTS.Client().Get(repTS.URL + server.PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-sync healthz: %d", resp.StatusCode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)
	waitUntil(t, "first catch-up", rep.Ready)

	check := func(stage string) {
		t.Helper()
		stP, want, _ := postTo(t, primTS.Client(), primTS.URL+server.PathTopK, topkBody)
		stR, got, _ := postTo(t, repTS.Client(), repTS.URL+server.PathTopK, topkBody)
		if stP != http.StatusOK || stR != http.StatusOK {
			t.Fatalf("%s: topk primary %d, replica %d", stage, stP, stR)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: replica topk diverged\n got: %s\nwant: %s", stage, got, want)
		}
	}
	check("after bootstrap")

	// Writes land on the primary; the replica tails them. Count the
	// log-worthy ops (acked inserts + found deletes) to know the target.
	var acked uint64 = 0
	for _, u := range users[200:260] {
		pts := make([][2]float64, len(u.Points))
		for j, p := range u.Points {
			pts[j] = [2]float64{p.X, p.Y}
		}
		st, body, _ := postTo(t, primTS.Client(), primTS.URL+server.PathInsert,
			mustBody(t, server.InsertRequest{ID: uint32(u.ID), Points: pts}))
		if st != http.StatusOK {
			t.Fatalf("primary insert: %d %s", st, body)
		}
		acked++
	}
	for id := uint32(0); id < 30; id += 3 {
		st, _, _ := postTo(t, primTS.Client(), primTS.URL+server.PathDelete,
			mustBody(t, server.DeleteRequest{ID: id}))
		if st != http.StatusOK {
			t.Fatalf("primary delete: %d", st)
		}
		acked++
	}
	waitUntil(t, "tail catch-up", func() bool { return replStatus(t, repTS).AppliedSeq >= acked })
	check("after tail")

	// Replicas never take writes, even caught up.
	st, body, _ = postTo(t, repTS.Client(), repTS.URL+server.PathInsert,
		mustBody(t, server.InsertRequest{ID: 99999, Points: [][2]float64{{1, 1}, {2, 2}}}))
	if st != http.StatusForbidden {
		t.Fatalf("replica insert: %d %s, want 403", st, body)
	}
	if !strings.Contains(string(body), "primary") {
		t.Fatalf("replica 403 does not name the primary: %s", body)
	}
	if got := replStatus(t, repTS); !got.Ready || got.Bootstraps != 1 {
		t.Fatalf("replstatus after follow: %+v", got)
	}
	_ = srv
}

// TestReplicaReBootstrapOnPrimaryRestart: when the primary comes back
// with a new replication boot identity (crash + WAL recovery), the
// replica's tail gets 410 and it re-bootstraps from a fresh snapshot —
// while the old index keeps serving the stale (still valid) prefix.
func TestReplicaReBootstrapOnPrimaryRestart(t *testing.T) {
	users := testUsers(220, 411)
	facs := testFacilities(5, 5, 412)
	fjs := server.FacilitiesJSON(facs)
	topkBody := mustBody(t, server.QueryRequest{Facilities: fjs, K: 3, Psi: 40})

	srvA, tsA := newPrimary(t, users[:150], replog.DefaultCap)
	_ = srvA
	var handler atomic.Value // http.Handler
	handler.Store(tsA.Config.Handler)
	outer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	defer outer.Close()

	rep, repTS := newReplicaStack(t, outer.URL)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rep.Run(ctx)
	waitUntil(t, "first catch-up", rep.Ready)
	bootA := replStatus(t, repTS).BootID

	// "Restart" the primary: a new process over a longer acked prefix,
	// with a fresh boot identity.
	srvB, tsB := newPrimary(t, users[:180], replog.DefaultCap)
	_ = srvB
	handler.Store(tsB.Config.Handler)

	waitUntil(t, "re-bootstrap", func() bool {
		st := replStatus(t, repTS)
		return st.Bootstraps >= 2 && st.BootID != bootA
	})
	waitUntil(t, "post-restart convergence", func() bool {
		_, want, _ := postTo(t, tsB.Client(), tsB.URL+server.PathTopK, topkBody)
		_, got, _ := postTo(t, repTS.Client(), repTS.URL+server.PathTopK, topkBody)
		return bytes.Equal(got, want)
	})
	if st := replStatus(t, repTS); !st.Ready {
		t.Fatalf("replica not ready after re-bootstrap: %+v", st)
	}
}

// stubPrimary serves fixed snapshot bytes and a fixed changes body —
// the adversarial primary for the corruption sweep.
func stubPrimary(t *testing.T, snapshot []byte, boot, seq string, changes []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case server.PathSnapshot:
			if boot != "" {
				w.Header().Set("X-Repl-Boot", boot)
			}
			w.Header().Set("X-Repl-Seq", seq)
			w.Write(snapshot)
		case server.PathChanges:
			w.Write(changes)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestReplicaBootstrapCorruption is the satellite-4 sweep: a replica
// bootstrapping from truncated or bit-flipped snapshot bytes must fail
// loudly or restore data identical to the original — never panic,
// never serve silently corrupted state. (The TQLIVE02 container CRCs
// its header and every frame, so a flip that restores cleanly can only
// have hit bytes the format ignores.)
func TestReplicaBootstrapCorruption(t *testing.T) {
	users := testUsers(300, 421)
	facs := testFacilities(5, 5, 422)
	idx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	wantVals, err := idx.ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}

	type mutation struct {
		name string
		data []byte
		boot string
		seq  string
	}
	muts := []mutation{
		{"control (no corruption)", valid, "aaaaaaaaaaaaaaaa", "0"},
		{"missing boot header", valid, "", "0"},
		{"garbage seq header", valid, "aaaaaaaaaaaaaaaa", "not-a-number"},
		{"empty body", nil, "aaaaaaaaaaaaaaaa", "0"},
	}
	// The sampled offsets are fixed, so the subtests keep their names when
	// the format's sizes move; the corpus is sized for the stream to hold
	// them all. The stream's last byte and its final CRC come on top.
	if len(valid) <= 31199 {
		t.Fatalf("a %d-byte snapshot does not reach the sampled offsets", len(valid))
	}
	for _, cut := range []int{1, 7, 10400, 15600, 31199, len(valid) - 1} {
		muts = append(muts, mutation{fmt.Sprintf("truncated to %d bytes", cut), valid[:cut], "aaaaaaaaaaaaaaaa", "0"})
	}
	for _, off := range []int{0, 9, 13, 7800, 15600, 23400, 31195, len(valid) - 5} {
		flipped := append([]byte(nil), valid...)
		flipped[off] ^= 0x40
		muts = append(muts, mutation{fmt.Sprintf("bit flip at offset %d", off), flipped, "aaaaaaaaaaaaaaaa", "0"})
	}

	ctx := context.Background()
	for _, m := range muts {
		t.Run(m.name, func(t *testing.T) {
			ts := stubPrimary(t, m.data, m.boot, m.seq, []byte(`{"boot_id":"aaaaaaaaaaaaaaaa","seq":0,"entries":[]}`))
			rep := NewReplica(ReplicaConfig{Primary: ts.URL, Policy: trajcover.LivePolicy{Manual: true}})
			got, _, _, err := rep.Bootstrap(ctx)
			if m.name == "control (no corruption)" {
				if err != nil {
					t.Fatalf("control bootstrap failed: %v", err)
				}
			}
			if err != nil {
				if got != nil {
					t.Fatalf("error %v returned alongside an index", err)
				}
				return // loud failure: the contract held
			}
			// Restored cleanly: it must be EXACTLY the original corpus.
			if got.Len() != idx.Len() {
				t.Fatalf("silent corruption: restored %d trajectories, original %d", got.Len(), idx.Len())
			}
			gotVals, err := got.ServiceValues(facs, q, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gotVals {
				if gotVals[i] != wantVals[i] {
					t.Fatalf("silent corruption: value[%d] = %v, want %v", i, gotVals[i], wantVals[i])
				}
			}
		})
	}
}

// TestReplicaTailCorruption: a valid snapshot followed by a corrupted
// changes feed must never produce a ready replica serving diverged
// state — the follow loop fails the session loudly and retries.
func TestReplicaTailCorruption(t *testing.T) {
	users := testUsers(80, 431)
	idx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	cases := []struct {
		name      string
		changes   string
		wantReady bool
		wantErr   string
	}{
		{"clean empty tail", `{"boot_id":"aaaaaaaaaaaaaaaa","seq":0,"entries":[]}`, true, ""},
		{"garbage json", `not json at all`, false, "changes"},
		{"unknown op", `{"boot_id":"aaaaaaaaaaaaaaaa","seq":1,"entries":[{"seq":1,"op":"mangle","id":5}]}`, false, "apply seq 1"},
		{"unbuildable trajectory", `{"boot_id":"aaaaaaaaaaaaaaaa","seq":1,"entries":[{"seq":1,"op":"insert","id":5,"points":[]}]}`, false, "apply seq 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts := stubPrimary(t, valid, "aaaaaaaaaaaaaaaa", "0", []byte(tc.changes))
			rep := NewReplica(ReplicaConfig{
				Primary:      ts.URL,
				Policy:       trajcover.LivePolicy{Manual: true},
				PollWait:     20 * time.Millisecond,
				RetryBackoff: 10 * time.Millisecond,
			})
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			go rep.Run(ctx)
			if tc.wantReady {
				waitUntil(t, "clean-tail catch-up", rep.Ready)
				return
			}
			waitUntil(t, "loud tail failure", func() bool { return rep.Status().LastError != "" })
			st := rep.Status()
			if st.Ready {
				t.Fatalf("replica went ready over a corrupted tail: %+v", st)
			}
			if !strings.Contains(st.LastError, tc.wantErr) {
				t.Fatalf("last error %q does not mention %q", st.LastError, tc.wantErr)
			}
		})
	}
}
