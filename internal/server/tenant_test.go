package server

// Multi-tenant serving tests: the tenant-isolation property test (every
// tenant's HTTP answers byte-identical to a single-tenant mirror of its
// own write history, while co-tenants write concurrently and a noisy
// tenant saturates its quota), deterministic per-tenant quota tests
// built on the blocker-task technique and an injected clock, and the
// 4xx paths that must never create tenant state.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/tenant"
)

// stressN scales property-test workloads under TRAJCOVER_STRESS (the CI
// tenant-e2e job sets it).
func stressN(n int) int {
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		return n * 4
	}
	return n
}

// menv is a multi-tenant serving fixture: a NewMulti server over a
// durable (or in-memory, root == "") registry behind httptest.
type menv struct {
	t      *testing.T
	srv    *Server
	reg    *trajcover.TenantRegistry
	ts     *httptest.Server
	client *http.Client
}

func newMultiEnv(t *testing.T, root string, cfg Config) *menv {
	t.Helper()
	opts := trajcover.TenantRegistryOptions{
		Root: root,
		WAL:  trajcover.WALOptions{Sync: trajcover.WALSyncAlways, SegmentBytes: 1 << 15},
		Index: trajcover.IndexOptions{
			Ordering:    trajcover.ZOrdering,
			Beta:        8,
			Bounds:      testBounds,
			Policy:      trajcover.LivePolicy{Manual: true},
			Shards:      2,
			Partitioner: trajcover.HashPartitioner(),
		},
	}
	reg, err := trajcover.OpenTenantRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewMulti(reg, cfg)
	ts := httptest.NewServer(srv.Handler())
	e := &menv{t: t, srv: srv, reg: reg, ts: ts, client: ts.Client()}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		reg.Close()
	})
	return e
}

// mirrorOpts must build mirrors exactly like newMultiEnv's registry
// builds tenants, or byte-identity cannot hold.
func mirrorOpts() trajcover.IndexOptions {
	return trajcover.IndexOptions{
		Ordering:    trajcover.ZOrdering,
		Beta:        8,
		Bounds:      testBounds,
		Shards:      2,
		Partitioner: trajcover.HashPartitioner(),
		Policy:      trajcover.LivePolicy{Manual: true},
	}
}

// post sends body to path, optionally with an X-Tenant header, and is
// safe for concurrent use (unlike env.post it reports errors, letting
// property-test goroutines fail their own tenant).
func (e *menv) post(path, xTenant string, body []byte) (int, []byte, http.Header, error) {
	req, err := http.NewRequest(http.MethodPost, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if xTenant != "" {
		req.Header.Set("X-Tenant", xTenant)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	out, err := readAll(resp)
	return resp.StatusCode, out, resp.Header, err
}

func readAll(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// mustPost is post that fails the test on transport errors or an
// unexpected status.
func (e *menv) mustPost(path, xTenant string, body []byte, wantStatus int) ([]byte, http.Header) {
	e.t.Helper()
	status, out, hdr, err := e.post(path, xTenant, body)
	if err != nil {
		e.t.Fatalf("POST %s: %v", path, err)
	}
	if status != wantStatus {
		e.t.Fatalf("POST %s (tenant %q): status %d, want %d: %s", path, xTenant, status, wantStatus, out)
	}
	return out, hdr
}

func insertBody(t *testing.T, u *trajcover.Trajectory, tenantField string) []byte {
	t.Helper()
	pts := make([][2]float64, len(u.Points))
	for i, p := range u.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	return mustBody(t, InsertRequest{ID: uint32(u.ID), Points: pts, Tenant: tenantField})
}

// tenantHistory is one tenant's scripted write history: base inserts,
// then ops (insert or delete), all derived from the tenant's own seed so
// every tenant's corpus is distinct while ID spaces deliberately
// overlap — a cross-tenant leak would collide immediately.
type tenantHistory struct {
	id    string
	users []*trajcover.Trajectory
	facs  []*trajcover.Facility
}

func historyOf(id string, seed int64, n int) tenantHistory {
	return tenantHistory{id: id, users: testUsers(n, seed), facs: testFacilities(8, 6, seed+1)}
}

// runTenantHistory drives one tenant's full history over HTTP,
// alternating the tenant between the X-Tenant header and the body
// field, and after every few writes asserts the served answers are
// byte-identical to a private single-tenant mirror of this history
// alone — while every other tenant writes concurrently. Returns an
// error instead of calling t.Fatal so it can run on a goroutine.
func (e *menv) runTenantHistory(h tenantHistory) error {
	mirror, err := trajcover.NewIndex(nil, mirrorOpts())
	if err != nil {
		return err
	}
	fjs := FacilitiesJSON(h.facs)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 60}
	check := func(step int) error {
		status, body, _, err := e.post(PathTopK, h.id, mustBody(e.t, QueryRequest{Facilities: fjs, K: 5, Psi: 60}))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("tenant %s step %d: topk status %d: %s", h.id, step, status, body)
		}
		direct, err := mirror.TopKParallelCtx(context.Background(), h.facs, 5, q, 1)
		if err != nil {
			return err
		}
		if want := MarshalTopKResponse(direct); !bytes.Equal(body, want) {
			return fmt.Errorf("tenant %s step %d: topk diverged from single-tenant mirror\n got: %s\nwant: %s", h.id, step, body, want)
		}
		status, body, _, err = e.post(PathServiceValues, "", mustBody(e.t, QueryRequest{Facilities: fjs, Psi: 60, Tenant: h.id}))
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("tenant %s step %d: servicevalues status %d: %s", h.id, step, status, body)
		}
		values, err := mirror.ServiceValuesCtx(context.Background(), h.facs, q, 1)
		if err != nil {
			return err
		}
		if want := MarshalValuesResponse(values); !bytes.Equal(body, want) {
			return fmt.Errorf("tenant %s step %d: servicevalues diverged from mirror", h.id, step)
		}
		return nil
	}
	for i, u := range h.users {
		// Alternate the tenant-naming mechanism: header one write, body
		// field the next — both must address the same tenant.
		var status int
		var body []byte
		if i%2 == 0 {
			status, body, _, err = e.post(PathInsert, h.id, insertBody(e.t, u, ""))
		} else {
			status, body, _, err = e.post(PathInsert, "", insertBody(e.t, u, h.id))
		}
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("tenant %s insert %d: status %d: %s", h.id, i, status, body)
		}
		if err := mirror.Insert(u); err != nil {
			return err
		}
		// The insert response's len is itself a per-tenant answer: it
		// must match the mirror even while co-tenants insert concurrently.
		if want := mustBody(e.t, InsertResponse{Len: mirror.Len()}); !bytes.Equal(body, want) {
			return fmt.Errorf("tenant %s insert %d: len answer %s, mirror %s", h.id, i, body, want)
		}
		// Delete every 7th user right after inserting it, again through
		// either naming mechanism.
		if i%7 == 3 {
			status, body, _, err = e.post(PathDelete, h.id, mustBody(e.t, DeleteRequest{ID: uint32(u.ID)}))
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("tenant %s delete %d: status %d: %s", h.id, i, status, body)
			}
			if _, err := mirror.Delete(u.ID); err != nil {
				return err
			}
			if want := mustBody(e.t, DeleteResponse{Found: true}); !bytes.Equal(body, want) {
				return fmt.Errorf("tenant %s delete %d: answer %s", h.id, i, body)
			}
		}
		if i%5 == 4 {
			if err := check(i); err != nil {
				return err
			}
		}
	}
	return check(len(h.users))
}

// TestTenantIsolationProperty is the archetype centerpiece: N tenants
// run concurrent scripted write/query histories through one HTTP server
// while a noisy co-tenant saturates its write-rate quota, and every
// tenant's every answer must be byte-identical to a fresh single-tenant
// mirror of its own history alone. Run it under -race; TRAJCOVER_STRESS
// scales the histories.
func TestTenantIsolationProperty(t *testing.T) {
	e := newMultiEnv(t, t.TempDir(), Config{Workers: 4, QueueDepth: 64, DefaultTimeout: 30 * time.Second})
	e.srv.SetOverrides(&tenant.Overrides{
		Tenants: map[string]tenant.Limits{
			// The noisy tenant's write rate is tiny; its flood must be
			// shed with 429s without perturbing anyone else's answers.
			"noisy": {WritesPerSec: 20},
		},
	})

	n := stressN(40)
	histories := []tenantHistory{
		historyOf("alpha", 101, n),
		historyOf("beta", 202, n),
		historyOf("gamma", 303, n),
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(histories)+1)

	// The noisy tenant: a write flood that outruns its 20 writes/sec
	// budget. Some writes land (200), the rest bounce (429) — and its
	// own accepted-prefix must still answer like a mirror of exactly the
	// accepted writes.
	wg.Add(1)
	go func() {
		defer wg.Done()
		mirror, err := trajcover.NewIndex(nil, mirrorOpts())
		if err != nil {
			errs <- err
			return
		}
		noisy := testUsers(stressN(150), 999)
		rejected := 0
		for _, u := range noisy {
			status, body, hdr, err := e.post(PathInsert, "noisy", insertBody(e.t, u, ""))
			if err != nil {
				errs <- err
				return
			}
			switch status {
			case http.StatusOK:
				if err := mirror.Insert(u); err != nil {
					errs <- err
					return
				}
			case http.StatusTooManyRequests:
				rejected++
				if hdr.Get("Retry-After") == "" {
					errs <- fmt.Errorf("noisy 429 without Retry-After")
					return
				}
				if !strings.Contains(string(body), string(tenant.RejectRate)) {
					errs <- fmt.Errorf("noisy 429 reason: %s", body)
					return
				}
			default:
				errs <- fmt.Errorf("noisy insert status %d: %s", status, body)
				return
			}
		}
		if rejected == 0 {
			errs <- fmt.Errorf("noisy tenant was never rate limited (flood of %d writes)", len(noisy))
			return
		}
		facs := testFacilities(6, 6, 998)
		status, body, _, err := e.post(PathServiceValues, "noisy", mustBody(e.t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 60}))
		if err != nil {
			errs <- err
			return
		}
		if status != http.StatusOK {
			errs <- fmt.Errorf("noisy query status %d: %s", status, body)
			return
		}
		values, err := mirror.ServiceValuesCtx(context.Background(), facs, trajcover.Query{Scenario: trajcover.Binary, Psi: 60}, 1)
		if err != nil {
			errs <- err
			return
		}
		if want := MarshalValuesResponse(values); !bytes.Equal(body, want) {
			errs <- fmt.Errorf("noisy tenant's accepted-prefix answers diverged from its mirror")
		}
	}()

	for _, h := range histories {
		wg.Add(1)
		go func(h tenantHistory) {
			defer wg.Done()
			if err := e.runTenantHistory(h); err != nil {
				errs <- err
			}
		}(h)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// The per-tenant /statsz sections must agree: the noisy tenant has
	// rate rejections, the scripted tenants none.
	st := e.srv.Stats()
	if st.Tenants["noisy"].Gate.RejectedRate == 0 {
		t.Error("statsz shows no rate rejections for the noisy tenant")
	}
	for _, id := range []string{"alpha", "beta", "gamma"} {
		if got := st.Tenants[id].Gate; got.Rejected() != 0 {
			t.Errorf("tenant %s has rejections %+v despite no quota", id, got)
		}
	}
	if st.Registry == nil || st.Registry.Created != 4 {
		t.Errorf("registry stats %+v, want 4 created tenants", st.Registry)
	}
}

// TestTenantQuotaDeterministic pins one tenant at max_inflight with the
// blocker technique: with the only slot taken, two admitted requests
// waiting for it hold the noisy tenant's two inflight slots, its third
// request gets an immediate 429 + Retry-After naming the limit, and a
// second tenant's request still succeeds once the slot frees up.
func TestTenantQuotaDeterministic(t *testing.T) {
	e := newMultiEnv(t, "", Config{Workers: 1, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	e.srv.SetOverrides(&tenant.Overrides{
		Tenants: map[string]tenant.Limits{"noisy": {MaxInflight: 2}},
	})

	// Materialize both tenants before the slot is taken.
	users := testUsers(4, 71)
	e.mustPost(PathInsert, "noisy", insertBody(t, users[0], ""), http.StatusOK)
	e.mustPost(PathInsert, "quiet", insertBody(t, users[1], ""), http.StatusOK)

	// blockWorkers' release closes a channel; Once-wrap it so the happy
	// path and the deferred cleanup can both call it.
	var relOnce sync.Once
	blockerRelease := blockWorkers(t, e.srv, 1)
	release := func() { relOnce.Do(blockerRelease) }
	defer release()

	facs := testFacilities(2, 4, 72)
	query := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 1, Psi: 40})

	// Two noisy queries wait for the slot holding both of the
	// tenant's inflight slots.
	type result struct {
		status int
		body   []byte
	}
	async := make(chan result, 3)
	for i := 0; i < 2; i++ {
		go func() {
			status, body, _, err := e.post(PathTopK, "noisy", query)
			if err != nil {
				status = -1
			}
			async <- result{status, body}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if e.srv.Stats().Tenants["noisy"].Gate.Inflight == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("noisy tenant never reached 2 inflight")
		}
		time.Sleep(time.Millisecond)
	}

	// The third noisy request must bounce instantly — the slot is still
	// taken, so this is the per-tenant gate, not the global waiting cap.
	start := time.Now()
	status, body, hdr, err := e.post(PathTopK, "noisy", query)
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusTooManyRequests {
		t.Fatalf("third noisy query: status %d: %s", status, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("quota 429 without Retry-After")
	}
	if !strings.Contains(string(body), string(tenant.RejectInflight)) {
		t.Fatalf("quota 429 body %s does not name max_inflight", body)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("quota rejection took %v; must fail fast", elapsed)
	}

	// The quiet tenant is admitted despite the noisy tenant's pin.
	go func() {
		status, body, _, err := e.post(PathTopK, "quiet", query)
		if err != nil {
			status = -1
		}
		async <- result{status, body}
	}()
	// Give the quiet request time to be admitted, then free the slot:
	// all three admitted requests must complete 200.
	deadline = time.Now().Add(5 * time.Second)
	for {
		if e.srv.Stats().Tenants["quiet"].Gate.Inflight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("quiet tenant was never admitted")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	for i := 0; i < 3; i++ {
		r := <-async
		if r.status != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d: %s", i, r.status, r.body)
		}
	}

	st := e.srv.Stats()
	if got := st.Tenants["noisy"].Gate.RejectedInflight; got != 1 {
		t.Fatalf("noisy rejected_inflight = %d, want 1", got)
	}
	if got := st.Tenants["quiet"].Gate.Rejected(); got != 0 {
		t.Fatalf("quiet tenant has %d rejections", got)
	}
}

// TestTenantWriteRateDeterministic drives the writes_per_sec bucket
// through HTTP with an injected clock: a burst of rate writes lands,
// the next bounces with 429, and one advanced second refills exactly
// rate tokens.
func TestTenantWriteRateDeterministic(t *testing.T) {
	e := newMultiEnv(t, "", Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	var mu sync.Mutex
	now := time.Unix(5000, 0)
	e.srv.now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	e.srv.SetOverrides(&tenant.Overrides{
		Tenants: map[string]tenant.Limits{"w": {WritesPerSec: 2}},
	})

	users := testUsers(8, 81)
	e.mustPost(PathInsert, "w", insertBody(t, users[0], ""), http.StatusOK)
	e.mustPost(PathInsert, "w", insertBody(t, users[1], ""), http.StatusOK)
	body, _ := e.mustPost(PathInsert, "w", insertBody(t, users[2], ""), http.StatusTooManyRequests)
	if !strings.Contains(string(body), string(tenant.RejectRate)) {
		t.Fatalf("rate 429 body: %s", body)
	}

	advance(time.Second)
	e.mustPost(PathInsert, "w", insertBody(t, users[3], ""), http.StatusOK)
	e.mustPost(PathInsert, "w", insertBody(t, users[4], ""), http.StatusOK)
	e.mustPost(PathInsert, "w", insertBody(t, users[5], ""), http.StatusTooManyRequests)

	// Hot-swapping the overrides changes the limit without restart: the
	// loosened document admits the same write that just bounced...
	e.srv.SetOverrides(nil)
	e.mustPost(PathInsert, "w", insertBody(t, users[5], ""), http.StatusOK)
	// ...and re-tightening re-clamps the bucket to the new burst.
	e.srv.SetOverrides(&tenant.Overrides{
		Tenants: map[string]tenant.Limits{"w": {WritesPerSec: 1}},
	})
	e.mustPost(PathInsert, "w", insertBody(t, users[6], ""), http.StatusOK)
	e.mustPost(PathInsert, "w", insertBody(t, users[7], ""), http.StatusTooManyRequests)

	if got := e.srv.Stats().Tenants["w"].Gate.RejectedRate; got != 3 {
		t.Fatalf("rejected_rate = %d, want 3", got)
	}
}

// TestTenantInvalidAndUnknown pins the 4xx paths: unknown tenants are
// 404 on every read surface, invalid tenant IDs (traversal, oversized,
// malformed) are 400 everywhere, header/body disagreement is 400 — and
// none of it may create directories under the registry root.
func TestTenantInvalidAndUnknown(t *testing.T) {
	root := t.TempDir()
	e := newMultiEnv(t, root, Config{Workers: 2, QueueDepth: 16})

	facs := testFacilities(2, 4, 91)
	query := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 1, Psi: 40})
	users := testUsers(2, 92)

	// Reads of unknown tenants: 404, never a lazy create.
	e.mustPost(PathTopK, "ghost", query, http.StatusNotFound)
	e.mustPost(PathServiceValues, "ghost", mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 40}), http.StatusNotFound)
	e.mustPost(PathCompact, "ghost", []byte(`{}`), http.StatusNotFound)
	e.mustPost(PathCheckpoint, "ghost", nil, http.StatusNotFound)
	if status, _ := e.getTenant(PathSnapshot, "ghost"); status != http.StatusNotFound {
		t.Fatalf("snapshot of unknown tenant: %d", status)
	}

	// Invalid IDs: 400 from header and body alike, including writes —
	// and the fuzz contract's HTTP half: no directory may appear.
	for _, id := range []string{"../evil", "..", "a/b", strings.Repeat("x", 65), ".hidden", "a b"} {
		e.mustPost(PathTopK, id, query, http.StatusBadRequest)
		e.mustPost(PathInsert, id, insertBody(t, users[0], ""), http.StatusBadRequest)
		e.mustPost(PathInsert, "", insertBody(t, users[0], id), http.StatusBadRequest)
	}

	// Header and body must agree when both are set.
	e.mustPost(PathInsert, "alpha", insertBody(t, users[0], "beta"), http.StatusBadRequest)
	// Agreement is fine.
	e.mustPost(PathInsert, "alpha", insertBody(t, users[0], "alpha"), http.StatusOK)

	ents, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "alpha" {
		names := make([]string, len(ents))
		for i, en := range ents {
			names[i] = en.Name()
		}
		t.Fatalf("registry root holds %v, want only [alpha]", names)
	}

	// The parent of the root must be untouched by traversal attempts
	// (t.TempDir gives us a clean parent to assert on).
	parentEnts, err := os.ReadDir(root + "/..")
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range parentEnts {
		if en.Name() == "evil" {
			t.Fatal("path-traversal tenant escaped the registry root")
		}
	}
}

func (e *menv) getTenant(path, xTenant string) (int, []byte) {
	e.t.Helper()
	req, err := http.NewRequest(http.MethodGet, e.ts.URL+path, nil)
	if err != nil {
		e.t.Fatal(err)
	}
	if xTenant != "" {
		req.Header.Set("X-Tenant", xTenant)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := readAll(resp)
	if err != nil {
		e.t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestTenantCheckpointAndSnapshot covers the per-tenant ops surface:
// X-Tenant selects which tenant's WAL is checkpointed, and each
// tenant's snapshot stream restores to that tenant's corpus alone.
func TestTenantCheckpointAndSnapshot(t *testing.T) {
	e := newMultiEnv(t, t.TempDir(), Config{Workers: 2, QueueDepth: 16})
	users := testUsers(40, 61)
	for _, u := range users[:20] {
		e.mustPost(PathInsert, "a", insertBody(t, u, ""), http.StatusOK)
	}
	for _, u := range users[20:30] {
		e.mustPost(PathInsert, "b", insertBody(t, u, ""), http.StatusOK)
	}

	var ck CheckpointResponse
	out, _ := e.mustPost(PathCheckpoint, "a", nil, http.StatusOK)
	if err := unmarshalStrict(out, &ck); err != nil || !ck.OK {
		t.Fatalf("checkpoint a: %s (%v)", out, err)
	}
	e.mustPost(PathCheckpoint, "b", nil, http.StatusOK)

	// Snapshot of tenant a restores to exactly a's 20 trajectories.
	status, snap := e.getTenant(PathSnapshot, "a")
	if status != http.StatusOK {
		t.Fatalf("snapshot a: %d", status)
	}
	restored, err := trajcover.ReadLiveSnapshot(bytes.NewReader(snap), trajcover.LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 20 {
		t.Fatalf("tenant a snapshot restored %d trajectories, want 20", restored.Len())
	}
	status, snap = e.getTenant(PathSnapshot, "b")
	if status != http.StatusOK {
		t.Fatalf("snapshot b: %d", status)
	}
	restored, err = trajcover.ReadLiveSnapshot(bytes.NewReader(snap), trajcover.LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Len() != 10 {
		t.Fatalf("tenant b snapshot restored %d trajectories, want 10", restored.Len())
	}
}

// TestTenantMaxTimeoutCap pins the per-tenant deadline cap: a tenant
// with max_timeout_ms below the requested timeout gets the tight
// deadline (504 behind a taken slot), while an uncapped tenant's
// request with the same timeout survives to completion.
func TestTenantMaxTimeoutCap(t *testing.T) {
	e := newMultiEnv(t, "", Config{Workers: 1, QueueDepth: 16, DefaultTimeout: 10 * time.Second, MaxTimeout: 10 * time.Second})
	e.srv.SetOverrides(&tenant.Overrides{
		Tenants: map[string]tenant.Limits{"tight": {MaxTimeoutMS: 50}},
	})
	users := testUsers(2, 51)
	e.mustPost(PathInsert, "tight", insertBody(t, users[0], ""), http.StatusOK)

	release := blockWorkers(t, e.srv, 1)
	defer release()

	facs := testFacilities(2, 4, 52)
	// The request asks for 5s; the tenant cap shrinks it to 50ms, so it
	// times out 504 while the slot is taken — fast.
	start := time.Now()
	body, _ := e.mustPost(PathTopK, "tight", mustBody(t, QueryRequest{
		Facilities: FacilitiesJSON(facs), K: 1, Psi: 40, TimeoutMS: 5000,
	}), http.StatusGatewayTimeout)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("capped request took %v to time out (cap is 50ms): %s", elapsed, body)
	}
}
