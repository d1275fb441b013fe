package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/faultfs"
	"github.com/trajcover/trajcover/internal/tenant"
)

// newFaultWALEnv is newWALEnv with an injectable filesystem under the
// WAL and a probe fast enough for tests, returning the index so tests
// can watch recovery directly.
func newFaultWALEnv(t *testing.T, base []*trajcover.Trajectory, cfg Config, inj *faultfs.Injector) (*env, *trajcover.Index) {
	t.Helper()
	idx, err := trajcover.OpenIndex(trajcover.WALOptions{
		Dir:      t.TempDir(),
		Sync:     trajcover.WALSyncAlways,
		FS:       inj,
		ProbeMin: 2 * time.Millisecond,
		ProbeMax: 50 * time.Millisecond,
	}, trajcover.LivePolicy{Manual: true}, func() (*trajcover.Index, error) {
		return trajcover.NewIndex(base, liveOpts())
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, cfg)
	ts := httptest.NewServer(srv.Handler())
	e := &env{t: t, srv: srv, ts: ts, client: ts.Client()}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		idx.Close()
	})
	return e, idx
}

func awaitRecovery(t *testing.T, idx *trajcover.Index) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for idx.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("probe did not recover: %+v", idx.Health())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerDegradedWritesAndRecovery is the HTTP view of the degraded
// state machine: a wedged WAL turns writes into 503 + Retry-After while
// queries and /healthz (200, status "degraded", cause named) keep
// serving, /statsz exposes the health and process sections, and the
// backoff probe restores 200 writes with no restart.
func TestServerDegradedWritesAndRecovery(t *testing.T) {
	users := testUsers(200, 71)
	inj := faultfs.NewInjector(nil, 71)
	e, idx := newFaultWALEnv(t, users[:150], Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 10 * time.Second}, inj)
	facs := testFacilities(4, 4, 72)
	qbody := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 40, Workers: 1})

	status, body := e.get(PathHealth)
	if status != http.StatusOK {
		t.Fatalf("healthy /healthz: %d %s", status, body)
	}
	var hr HealthResponse
	if err := json.Unmarshal(body, &hr); err != nil || hr.Status != "ok" {
		t.Fatalf("healthy /healthz body %s (err %v)", body, err)
	}

	// Wedge the disk persistently (the probe's recovery attempts fail
	// too, keeping the degraded window open while we inspect it); the
	// write that hits it is rejected 503 and the header tells the
	// client when to come back.
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Times: 1 << 20})
	status, body, hdr := e.post(PathInsert, insertBody(t, users[150], ""))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("wedged insert: %d %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded insert 503 missing Retry-After")
	}

	// Fast-fail path for the next writes, same contract.
	status, _, hdr = e.post(PathDelete, mustBody(t, DeleteRequest{ID: uint32(users[0].ID)}))
	if status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("degraded delete: %d, Retry-After %q", status, hdr.Get("Retry-After"))
	}

	// Degraded is not down: /healthz stays 200 so load balancers keep
	// routing reads, with the cause spelled out per tenant.
	status, body = e.get(PathHealth)
	if status != http.StatusOK {
		t.Fatalf("degraded /healthz status %d", status)
	}
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Status != "degraded" || hr.Degraded[tenant.DefaultID] == "" {
		t.Fatalf("degraded /healthz body %s", body)
	}

	// Queries serve the last published epochs.
	if status, _, _ = e.post(PathServiceValues, qbody); status != http.StatusOK {
		t.Fatalf("degraded query status %d", status)
	}

	// /statsz carries the health state machine and the process section.
	status, body = e.get(PathStats)
	if status != http.StatusOK {
		t.Fatalf("/statsz status %d", status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Index.Health == nil || !st.Index.Health.Degraded || st.Index.Health.Cause == "" || st.Index.Health.Entries != 1 {
		t.Fatalf("/statsz index health %+v", st.Index.Health)
	}
	if st.Process.Goroutines <= 0 || st.Process.HeapInuseBytes == 0 || st.Process.UptimeSeconds <= 0 {
		t.Fatalf("/statsz process section %+v", st.Process)
	}

	// Fix the disk; the probe recovers on its own and writes resume
	// over HTTP.
	inj.Heal()
	awaitRecovery(t, idx)
	status, body = e.get(PathHealth)
	if err := json.Unmarshal(body, &hr); err != nil || status != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("post-recovery /healthz %d %s", status, body)
	}
	// The wedged insert was applied-but-unacked (failed at fsync, after
	// the in-memory apply): the recovery checkpoint made it durable, so
	// the retry is a 409 conflict — exactly the duplicate-ID contract.
	status, _, _ = e.post(PathInsert, insertBody(t, users[150], ""))
	if status != http.StatusConflict {
		t.Fatalf("retried wedged insert: %d, want 409", status)
	}
	if status, _, _ = e.post(PathInsert, insertBody(t, users[151], "")); status != http.StatusOK {
		t.Fatalf("post-recovery insert: %d", status)
	}
}

// TestServerCheckpointDegraded503: a checkpoint that fails on disk
// degrades the index and answers 503 + Retry-After (not 500) — the
// probe owns the retry, and once it recovers /v1/checkpoint works.
func TestServerCheckpointDegraded503(t *testing.T) {
	users := testUsers(150, 73)
	inj := faultfs.NewInjector(nil, 73)
	e, idx := newFaultWALEnv(t, users, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 10 * time.Second}, inj)

	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Nth: 1})
	status, body, hdr := e.post(PathCheckpoint, nil)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("failed checkpoint: %d %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("degraded checkpoint 503 missing Retry-After")
	}
	awaitRecovery(t, idx)
	if status, body, _ = e.post(PathCheckpoint, nil); status != http.StatusOK {
		t.Fatalf("post-recovery checkpoint: %d %s", status, body)
	}
}

// TestRetryAfterMatrix audits every transient rejection the server can
// produce — pool overflow, tenant quota, drain, closed pool, degraded
// writes — and asserts each one carries the one Retry-After hint, while
// permanent rejections (malformed input, conflicts) never do.
func TestRetryAfterMatrix(t *testing.T) {
	users := testUsers(120, 75)
	facs := testFacilities(4, 4, 76)
	qbody := func(t *testing.T) []byte {
		return mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 2, Psi: 40})
	}

	cases := []struct {
		name       string
		wantStatus int
		wantRetry  bool
		run        func(t *testing.T) (int, http.Header)
	}{
		{"pool overflow topk", http.StatusTooManyRequests, true, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 10 * time.Second})
			release := blockWorkers(t, e.srv, 1)
			defer release()
			fillQueue(t, e.srv, 1)
			status, _, hdr := e.post(PathTopK, qbody(t))
			return status, hdr
		}},
		{"tenant write rate", http.StatusTooManyRequests, true, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:100], Config{Workers: 2, QueueDepth: 8, DefaultTimeout: 10 * time.Second})
			// Burst floor is one write; the second in the same instant is
			// over the bucket.
			e.srv.SetOverrides(&tenant.Overrides{Defaults: tenant.Limits{WritesPerSec: 0.001}})
			if status, _, _ := e.post(PathInsert, insertBody(t, users[100], "")); status != http.StatusOK {
				t.Fatalf("first write within burst: %d", status)
			}
			status, _, hdr := e.post(PathInsert, insertBody(t, users[101], ""))
			return status, hdr
		}},
		{"draining insert", http.StatusServiceUnavailable, true, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:50], Config{})
			e.srv.BeginDrain()
			status, _, hdr := e.post(PathInsert, insertBody(t, users[100], ""))
			return status, hdr
		}},
		{"draining snapshot", http.StatusServiceUnavailable, true, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:50], Config{})
			e.srv.BeginDrain()
			resp, err := e.client.Get(e.ts.URL + PathSnapshot)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode, resp.Header
		}},
		{"draining checkpoint", http.StatusServiceUnavailable, true, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:50], Config{})
			e.srv.BeginDrain()
			status, _, hdr := e.post(PathCheckpoint, nil)
			return status, hdr
		}},
		{"draining healthz", http.StatusServiceUnavailable, true, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:50], Config{})
			e.srv.BeginDrain()
			resp, err := e.client.Get(e.ts.URL + PathHealth)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode, resp.Header
		}},
		{"closed pool insert", http.StatusServiceUnavailable, true, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:50], Config{})
			e.srv.Close()
			status, _, hdr := e.post(PathInsert, insertBody(t, users[100], ""))
			return status, hdr
		}},
		{"degraded insert", http.StatusServiceUnavailable, true, func(t *testing.T) (int, http.Header) {
			inj := faultfs.NewInjector(nil, 77)
			e, _ := newFaultWALEnv(t, users[:50], Config{Workers: 2, QueueDepth: 8, DefaultTimeout: 10 * time.Second}, inj)
			inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 1})
			status, _, hdr := e.post(PathInsert, insertBody(t, users[100], ""))
			return status, hdr
		}},
		{"degraded delete", http.StatusServiceUnavailable, true, func(t *testing.T) (int, http.Header) {
			inj := faultfs.NewInjector(nil, 78)
			e, _ := newFaultWALEnv(t, users[:50], Config{Workers: 2, QueueDepth: 8, DefaultTimeout: 10 * time.Second}, inj)
			inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 1})
			if status, _, _ := e.post(PathInsert, insertBody(t, users[100], "")); status != http.StatusServiceUnavailable {
				t.Fatalf("wedging insert: %d", status)
			}
			status, _, hdr := e.post(PathDelete, mustBody(t, DeleteRequest{ID: uint32(users[0].ID)}))
			return status, hdr
		}},
		// Permanent rejections must NOT invite a retry.
		{"malformed body", http.StatusBadRequest, false, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:50], Config{})
			status, _, hdr := e.post(PathInsert, []byte("{"))
			return status, hdr
		}},
		{"duplicate insert conflict", http.StatusConflict, false, func(t *testing.T) (int, http.Header) {
			e := newEnv(t, users[:50], Config{})
			status, _, hdr := e.post(PathInsert, insertBody(t, users[0], ""))
			return status, hdr
		}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			status, hdr := tc.run(t)
			if status != tc.wantStatus {
				t.Fatalf("status %d, want %d", status, tc.wantStatus)
			}
			want := ""
			if tc.wantRetry {
				want = RetryAfter
			}
			if got := hdr.Get("Retry-After"); got != want {
				t.Fatalf("Retry-After %q, want %q", got, want)
			}
		})
	}
}

// TestServerMultiTenantDegradedIsolation is the HTTP view of per-tenant
// failure domains: one tenant's dying disk turns only that tenant's
// writes into 503 while the co-tenant stays at 200, /healthz names the
// faulted tenant alone, and its recovery clears the entry.
func TestServerMultiTenantDegradedIsolation(t *testing.T) {
	users := testUsers(200, 81)
	inj := faultfs.NewInjector(nil, 81)
	root := t.TempDir()
	reg, err := trajcover.OpenTenantRegistry(trajcover.TenantRegistryOptions{
		Root: root,
		WAL: trajcover.WALOptions{
			Sync: trajcover.WALSyncAlways, SegmentBytes: 1 << 15,
			FS: inj, ProbeMin: 2 * time.Millisecond, ProbeMax: 50 * time.Millisecond,
		},
		Index: trajcover.IndexOptions{
			Ordering:    trajcover.ZOrdering,
			Beta:        8,
			Bounds:      testBounds,
			Policy:      trajcover.LivePolicy{Manual: true},
			Shards:      2,
			Partitioner: trajcover.HashPartitioner(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMulti(reg, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	e := &menv{t: t, srv: srv, reg: reg, ts: ts, client: ts.Client()}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		reg.Close()
	})

	for i := 0; i < 20; i++ {
		e.mustPost(PathInsert, "alpha", insertBody(t, users[i], ""), http.StatusOK)
		e.mustPost(PathInsert, "beta", insertBody(t, users[i], ""), http.StatusOK)
	}

	// Only alpha's subtree faults.
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Path: "/alpha/", Nth: 1, Times: 2})
	status, _, hdr, err := e.post(PathInsert, "alpha", insertBody(t, users[20], ""))
	if err != nil || status != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("alpha wedged insert: %d, Retry-After %q, err %v", status, hdr.Get("Retry-After"), err)
	}
	// Beta is a separate failure domain.
	e.mustPost(PathInsert, "beta", insertBody(t, users[20], ""), http.StatusOK)

	resp, err := e.client.Get(e.ts.URL + PathHealth)
	if err != nil {
		t.Fatal(err)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hr.Status != "degraded" {
		t.Fatalf("/healthz during alpha wedge: %d %+v", resp.StatusCode, hr)
	}
	if hr.Degraded["alpha"] == "" || len(hr.Degraded) != 1 {
		t.Fatalf("/healthz degraded map %v, want exactly alpha", hr.Degraded)
	}

	// Alpha's probe recovers alpha; the map clears.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if deg := reg.Degraded(); len(deg) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alpha did not recover: %v", reg.Degraded())
		}
		time.Sleep(time.Millisecond)
	}
	e.mustPost(PathInsert, "alpha", insertBody(t, users[21], ""), http.StatusOK)
}
