package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
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

// env is one serving fixture: the server under test behind httptest and
// an identically built mirror index driven directly.
type env struct {
	t      *testing.T
	srv    *Server
	ts     *httptest.Server
	mirror *trajcover.Index
	client *http.Client
}

func newEnv(t *testing.T, base []*trajcover.Trajectory, cfg Config) *env {
	t.Helper()
	idx, err := trajcover.NewIndex(base, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := trajcover.NewIndex(base, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, cfg)
	ts := httptest.NewServer(srv.Handler())
	e := &env{t: t, srv: srv, ts: ts, mirror: mirror, client: ts.Client()}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return e
}

func (e *env) post(path string, body []byte) (int, []byte, http.Header) {
	e.t.Helper()
	resp, err := e.client.Post(e.ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		e.t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatalf("POST %s: read body: %v", path, err)
	}
	return resp.StatusCode, out, resp.Header
}

func (e *env) get(path string) (int, []byte) {
	e.t.Helper()
	resp, err := e.client.Get(e.ts.URL + path)
	if err != nil {
		e.t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		e.t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, out
}

func mustBody(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServerEndToEndMatchesDirect drives mixed topk / servicevalues /
// insert / delete / compact traffic through HTTP and asserts every
// response byte-identical to direct Index calls applying the
// same write history to an identically built mirror.
func TestServerEndToEndMatchesDirect(t *testing.T) {
	users := testUsers(600, 21)
	base, feed := users[:400], users[400:]
	e := newEnv(t, base, Config{Workers: 2, QueueDepth: 32, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(16, 8, 22)
	fjs := FacilitiesJSON(facs)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}

	checkQueries := func(stage string, workers int) {
		t.Helper()
		status, body, _ := e.post(PathTopK, mustBody(t, QueryRequest{
			Facilities: fjs, K: 8, Psi: 40, Workers: workers,
		}))
		if status != http.StatusOK {
			t.Fatalf("%s: topk status %d: %s", stage, status, body)
		}
		direct, err := e.mirror.TopKParallelCtx(context.Background(), facs, 8, q, workers)
		if err != nil {
			t.Fatal(err)
		}
		if want := MarshalTopKResponse(direct); !bytes.Equal(body, want) {
			t.Fatalf("%s: topk response differs from direct call\n got: %s\nwant: %s", stage, body, want)
		}

		status, body, _ = e.post(PathServiceValues, mustBody(t, QueryRequest{
			Facilities: fjs, Psi: 40, Workers: workers,
		}))
		if status != http.StatusOK {
			t.Fatalf("%s: servicevalues status %d: %s", stage, status, body)
		}
		values, err := e.mirror.ServiceValuesCtx(context.Background(), facs, q, workers)
		if err != nil {
			t.Fatal(err)
		}
		if want := MarshalValuesResponse(values); !bytes.Equal(body, want) {
			t.Fatalf("%s: servicevalues response differs from direct call\n got: %s\nwant: %s", stage, body, want)
		}
	}

	checkQueries("initial", 0)
	rng := rand.New(rand.NewSource(23))
	alive := map[uint32]bool{}
	for _, u := range base {
		alive[uint32(u.ID)] = true
	}
	for op := 0; op < 120; op++ {
		if rng.Intn(2) == 0 && len(feed) > 0 {
			u := feed[0]
			feed = feed[1:]
			pts := make([][2]float64, len(u.Points))
			for i, p := range u.Points {
				pts[i] = [2]float64{p.X, p.Y}
			}
			status, body, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: uint32(u.ID), Points: pts}))
			if status != http.StatusOK {
				t.Fatalf("insert %d: status %d: %s", u.ID, status, body)
			}
			if err := e.mirror.Insert(u); err != nil {
				t.Fatal(err)
			}
			var ir InsertResponse
			if err := json.Unmarshal(body, &ir); err != nil {
				t.Fatal(err)
			}
			if ir.Len != e.mirror.Len() {
				t.Fatalf("insert %d: len %d, mirror %d", u.ID, ir.Len, e.mirror.Len())
			}
			alive[uint32(u.ID)] = true
		} else {
			var id uint32
			for cand := range alive {
				id = cand
				break
			}
			status, body, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: id}))
			if status != http.StatusOK {
				t.Fatalf("delete %d: status %d: %s", id, status, body)
			}
			found, err := e.mirror.Delete(trajcover.ID(id))
			if err != nil {
				t.Fatal(err)
			}
			var dr DeleteResponse
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatal(err)
			}
			if dr.Found != found {
				t.Fatalf("delete %d: found %v, mirror %v", id, dr.Found, found)
			}
			delete(alive, id)
		}
		if op%20 == 19 {
			checkQueries(fmt.Sprintf("op %d", op), op%3)
		}
		if op == 60 {
			status, body, _ := e.post(PathCompact, nil)
			if status != http.StatusOK {
				t.Fatalf("compact: status %d: %s", status, body)
			}
			if err := e.mirror.Compact(); err != nil {
				t.Fatal(err)
			}
			checkQueries("post-compact", 4)
		}
	}
	checkQueries("final", 0)

	// A duplicate insert is a conflict, mirrored by the library error.
	dupID := uint32(0)
	for id := range alive {
		dupID = id
		break
	}
	u := users[dupID]
	pts := make([][2]float64, len(u.Points))
	for i, p := range u.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	if status, _, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: dupID, Points: pts})); status != http.StatusConflict {
		t.Fatalf("duplicate insert: status %d, want 409", status)
	}
}

// TestServerPrefixConsistencyUnderConcurrentWrites extends the live
// prefix-consistency idiom to the HTTP boundary: readers hammer
// /v1/servicevalues and /v1/topk while a writer applies a scripted
// insert/delete history; every response must be byte-identical to a
// fresh build of SOME prefix of that history.
func TestServerPrefixConsistencyUnderConcurrentWrites(t *testing.T) {
	users := testUsers(400, 31)
	base, feed := users[:300], users[300:]
	e := newEnv(t, base, Config{Workers: 2, QueueDepth: 64, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(8, 8, 32)
	fjs := FacilitiesJSON(facs)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}

	// Scripted history: insert feed[i], then delete a base trajectory,
	// alternating — 60 writes.
	type write struct {
		insert *trajcover.Trajectory
		delete trajcover.ID
	}
	var script []write
	for i := 0; i < 30; i++ {
		script = append(script, write{insert: feed[i]}, write{delete: base[i*7].ID})
	}

	// Allowed answers: one per prefix, from fresh sharded builds.
	corpus := map[trajcover.ID]*trajcover.Trajectory{}
	for _, u := range base {
		corpus[u.ID] = u
	}
	shardOpts := trajcover.IndexOptions{
		Ordering:    trajcover.ZOrdering,
		Beta:        8,
		Bounds:      testBounds,
		Shards:      2,
		Partitioner: trajcover.HashPartitioner(),
	}
	allowedSV := map[string]int{}
	allowedTopK := map[string]int{}
	snapshotPrefix := func(i int) {
		var all []*trajcover.Trajectory
		for id := trajcover.ID(0); int(id) < len(users); id++ {
			if u, ok := corpus[id]; ok {
				all = append(all, u)
			}
		}
		fresh, err := trajcover.NewIndex(all, shardOpts)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := fresh.ServiceValues(facs, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		allowedSV[string(MarshalValuesResponse(vs))] = i
		top, err := fresh.TopK(facs, 4, q)
		if err != nil {
			t.Fatal(err)
		}
		allowedTopK[string(MarshalTopKResponse(top))] = i
	}
	snapshotPrefix(0)
	for i, wr := range script {
		if wr.insert != nil {
			corpus[wr.insert.ID] = wr.insert
		} else {
			delete(corpus, wr.delete)
		}
		snapshotPrefix(i + 1)
	}

	stop := make(chan struct{})
	var readerErr error
	var readerOnce sync.Once
	var wg sync.WaitGroup
	reads := make([]int, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var path string
				var body []byte
				var allowed map[string]int
				if reads[r]%2 == 0 {
					path = PathServiceValues
					body = mustBody(t, QueryRequest{Facilities: fjs, Psi: 40, Workers: 1})
					allowed = allowedSV
				} else {
					path = PathTopK
					body = mustBody(t, QueryRequest{Facilities: fjs, K: 4, Psi: 40, Workers: 1})
					allowed = allowedTopK
				}
				resp, err := e.client.Post(e.ts.URL+path, "application/json", bytes.NewReader(body))
				if err != nil {
					readerOnce.Do(func() { readerErr = err })
					return
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					readerOnce.Do(func() { readerErr = err })
					return
				}
				if resp.StatusCode != http.StatusOK {
					readerOnce.Do(func() { readerErr = fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, got) })
					return
				}
				if _, ok := allowed[string(got)]; !ok {
					readerOnce.Do(func() { readerErr = fmt.Errorf("%s answer matches no prefix of the write history: %s", path, got) })
					return
				}
				reads[r]++
				// Yield so the hammering readers cannot starve the writer
				// on small core counts (see internal/shard/live_test.go).
				time.Sleep(50 * time.Microsecond)
			}
		}(r)
	}

	for _, wr := range script {
		if wr.insert != nil {
			pts := make([][2]float64, len(wr.insert.Points))
			for i, p := range wr.insert.Points {
				pts[i] = [2]float64{p.X, p.Y}
			}
			status, body, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: uint32(wr.insert.ID), Points: pts}))
			if status != http.StatusOK {
				t.Fatalf("insert %d: status %d: %s", wr.insert.ID, status, body)
			}
		} else {
			status, body, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: uint32(wr.delete)}))
			if status != http.StatusOK {
				t.Fatalf("delete %d: status %d: %s", wr.delete, status, body)
			}
			var dr DeleteResponse
			if err := json.Unmarshal(body, &dr); err != nil {
				t.Fatal(err)
			}
			if !dr.Found {
				t.Fatalf("delete %d: not found", wr.delete)
			}
		}
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}
	if reads[0]+reads[1] == 0 {
		t.Fatal("readers made no progress during the write history")
	}

	// After the full history, the answer must be the final prefix's.
	status, got, _ := e.post(PathServiceValues, mustBody(t, QueryRequest{Facilities: fjs, Psi: 40, Workers: 1}))
	if status != http.StatusOK {
		t.Fatalf("final servicevalues: status %d", status)
	}
	if idx, ok := allowedSV[string(got)]; !ok || idx != len(script) {
		t.Fatalf("final answer is prefix %d (ok=%v), want %d", idx, ok, len(script))
	}
}

// blockWorkers takes n of the server's slots, as n running requests
// would, and returns the function that gives them back.
func blockWorkers(t *testing.T, s *Server, n int) func() {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case s.slots <- struct{}{}:
		case <-time.After(5 * time.Second):
			t.Fatal("could not take a slot")
		}
	}
	return func() {
		for i := 0; i < n; i++ {
			<-s.slots
		}
	}
}

// fillQueue parks n waiters for a slot, as n handlers blocked behind
// taken slots would be, and returns once they all wait. Each takes a
// slot and gives it straight back once one comes free.
func fillQueue(t *testing.T, s *Server, n int) {
	t.Helper()
	want := s.waiting.Load() + int64(n)
	for i := 0; i < n; i++ {
		go func() {
			if s.waitSlot(context.Background()) == 0 {
				<-s.slots
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.waiting.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters parked", s.waiting.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerAdmissionControl takes every slot and waiting place and
// asserts overflow requests are rejected immediately with 429 +
// Retry-After — well inside their deadline — and that service resumes
// once the slots free up.
func TestServerAdmissionControl(t *testing.T) {
	users := testUsers(200, 41)
	e := newEnv(t, users, Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 10 * time.Second})
	facs := testFacilities(4, 4, 42)
	body := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 2, Psi: 40})

	releaseWorker := blockWorkers(t, e.srv, 1)
	fillQueue(t, e.srv, 1)

	start := time.Now()
	status, respBody, hdr := e.post(PathTopK, body)
	elapsed := time.Since(start)
	if status != http.StatusTooManyRequests {
		t.Fatalf("saturated topk: status %d, want 429 (%s)", status, respBody)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("429 took %v; admission must fail fast, not wait out the deadline", elapsed)
	}
	if got := e.srv.Stats().Endpoints[PathTopK].Rejected; got < 1 {
		t.Fatalf("rejected counter = %d, want >= 1", got)
	}

	releaseWorker()
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _ := e.post(PathTopK, body)
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not resume after release: status %d", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServerDeadline: a request whose deadline expires while it waits
// for a slot is answered 504 at the deadline without running, and the
// cancellation-aware executor surfaces context.DeadlineExceeded at the
// library level too.
func TestServerDeadline(t *testing.T) {
	users := testUsers(200, 51)
	e := newEnv(t, users, Config{Workers: 1, QueueDepth: 8, DefaultTimeout: 10 * time.Second})
	facs := testFacilities(4, 4, 52)

	release := blockWorkers(t, e.srv, 1)
	start := time.Now()
	status, body, _ := e.post(PathTopK, mustBody(t, QueryRequest{
		Facilities: FacilitiesJSON(facs), K: 2, Psi: 40, TimeoutMS: 150,
	}))
	elapsed := time.Since(start)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("queued-past-deadline topk: status %d (%s), want 504", status, body)
	}
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("504 body %q does not name the deadline", body)
	}
	if elapsed < 100*time.Millisecond || elapsed > 8*time.Second {
		t.Fatalf("504 arrived after %v, want ~150ms", elapsed)
	}
	if got := e.srv.Stats().Endpoints[PathTopK].DeadlineExceeded; got < 1 {
		t.Fatalf("deadline counter = %d, want >= 1", got)
	}
	release()

	// The executor itself reports DeadlineExceeded on an expired ctx —
	// the contract the 504 mapping stands on.
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	if _, err := e.srv.Index().TopKCtx(ctx, facs, 2, q); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TopKCtx(expired) err = %v, want DeadlineExceeded", err)
	}
	if _, err := e.srv.Index().ServiceValuesCtx(ctx, facs, q, 2); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ServiceValuesCtx(expired) err = %v, want DeadlineExceeded", err)
	}
	if _, err := e.srv.Index().TopKParallelCtx(ctx, facs, 2, q, 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("TopKParallelCtx(expired) err = %v, want DeadlineExceeded", err)
	}

	// And service resumes.
	deadline := time.Now().Add(10 * time.Second)
	for {
		status, _, _ := e.post(PathTopK, mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 2, Psi: 40}))
		if status == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("service did not resume: status %d", status)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingBody is a request body that counts the reads made of it.
type countingBody struct{ reads int }

func (b *countingBody) Read([]byte) (int, error) { b.reads++; return 0, io.EOF }
func (b *countingBody) Close() error             { return nil }

// TestServerRefusesDeclaredOversizedBody: a body that declares more than
// MaxBodyBytes is a 413 before a byte of it is read, on every endpoint
// that takes a body — the error names the limit, the connection closes,
// and nothing is hashed or decoded.
func TestServerRefusesDeclaredOversizedBody(t *testing.T) {
	e := newEnv(t, testUsers(100, 97), Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 512, ResultCacheBytes: 1 << 20})
	for _, path := range []string{PathTopK, PathServiceValues, PathInsert, PathDelete, PathCompact} {
		body := &countingBody{}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = 513
		w := httptest.NewRecorder()
		e.srv.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: status %d (%s), want 413", path, w.Code, w.Body)
		}
		if body.reads != 0 {
			t.Fatalf("%s: the body was read %d times before the 413", path, body.reads)
		}
		if msg := errorOf(t, w.Body.Bytes()); !strings.Contains(msg, "512-byte limit") || !strings.Contains(msg, "513 bytes") {
			t.Fatalf("%s: 413 says %q, want the declared length and the limit", path, msg)
		}
		if w.Header().Get("Connection") != "close" {
			t.Fatalf("%s: 413 leaves the connection open over an unread body", path)
		}
		if got := e.srv.Stats().Endpoints[path]; got.Requests != 1 || got.Errors != 1 {
			t.Fatalf("%s: counters %+v, want one request, one error", path, got)
		}
	}
	if rc := e.srv.Stats().ResultCache; rc.AliasMisses != 0 || rc.Misses != 0 || rc.Entries != 0 {
		t.Fatalf("result cache %+v: a refused body reached the cache", rc)
	}
}

// TestServerRejectsBadRequests pins the 4xx surface of the decoder and
// transport limits.
func TestServerRejectsBadRequests(t *testing.T) {
	users := testUsers(100, 61)
	e := newEnv(t, users, Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 512})

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"malformed json", PathTopK, `{"facilities":`, http.StatusBadRequest},
		{"k zero", PathTopK, `{"facilities":[{"id":1,"stops":[[1,2]]}],"k":0,"psi":10}`, http.StatusBadRequest},
		{"k negative", PathTopK, `{"facilities":[{"id":1,"stops":[[1,2]]}],"k":-4,"psi":10}`, http.StatusBadRequest},
		{"psi negative", PathTopK, `{"facilities":[{"id":1,"stops":[[1,2]]}],"k":1,"psi":-1}`, http.StatusBadRequest},
		{"nan literal", PathTopK, `{"facilities":[{"id":1,"stops":[[NaN,2]]}],"k":1,"psi":10}`, http.StatusBadRequest},
		{"overflow number", PathTopK, `{"facilities":[{"id":1,"stops":[[1e999,2]]}],"k":1,"psi":10}`, http.StatusBadRequest},
		{"facility without stops", PathTopK, `{"facilities":[{"id":1,"stops":[]}],"k":1,"psi":10}`, http.StatusBadRequest},
		{"bogus scenario", PathServiceValues, `{"facilities":[{"id":1,"stops":[[1,2]]}],"scenario":"nope","psi":10}`, http.StatusBadRequest},
		{"negative timeout", PathServiceValues, `{"facilities":[{"id":1,"stops":[[1,2]]}],"psi":10,"timeout_ms":-5}`, http.StatusBadRequest},
		{"one-point trajectory", PathInsert, `{"id":9001,"points":[[1,2]]}`, http.StatusBadRequest},
		{"insert nan", PathInsert, `{"id":9001,"points":[[1,2],[3,NaN]]}`, http.StatusBadRequest},
		{"unknown field (typoed timeout)", PathTopK, `{"facilities":[{"id":1,"stops":[[1,2]]}],"k":1,"psi":10,"timeoutms":50}`, http.StatusBadRequest},
		{"trailing data", PathDelete, `{"id":1}{"id":2}`, http.StatusBadRequest},
		{"oversized body", PathTopK, `{"filler":"` + strings.Repeat("x", 2048) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body, _ := e.post(tc.path, []byte(tc.body))
			if status != tc.want {
				t.Fatalf("status %d (%s), want %d", status, body, tc.want)
			}
		})
	}

	resp, err := e.client.Get(e.ts.URL + PathTopK)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET topk: status %d, want 405", resp.StatusCode)
	}
}

// TestServerSnapshotRoundTrip streams /v1/snapshot and restores it:
// the restored index must answer byte-identically to the served one.
func TestServerSnapshotRoundTrip(t *testing.T) {
	users := testUsers(300, 71)
	e := newEnv(t, users[:250], Config{Workers: 1, QueueDepth: 8})
	facs := testFacilities(8, 6, 72)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}

	// Leave pending churn in the epochs so the snapshot carries delta
	// and tombstones, not just a frozen base.
	for _, u := range users[250:] {
		pts := make([][2]float64, len(u.Points))
		for i, p := range u.Points {
			pts[i] = [2]float64{p.X, p.Y}
		}
		if status, body, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: uint32(u.ID), Points: pts})); status != http.StatusOK {
			t.Fatalf("insert: %d %s", status, body)
		}
	}
	if status, _, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: 3})); status != http.StatusOK {
		t.Fatal("delete failed")
	}

	status, raw := e.get(PathSnapshot)
	if status != http.StatusOK {
		t.Fatalf("snapshot: status %d", status)
	}
	restored, err := trajcover.ReadLiveSnapshot(bytes.NewReader(raw), trajcover.LivePolicy{Manual: true})
	if err != nil {
		t.Fatalf("restore streamed snapshot: %v", err)
	}
	if restored.Len() != e.srv.Index().Len() {
		t.Fatalf("restored len %d, served %d", restored.Len(), e.srv.Index().Len())
	}
	want, err := e.srv.Index().ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalValuesResponse(got), MarshalValuesResponse(want)) {
		t.Fatal("restored snapshot answers differ from served index")
	}
}

// TestServerStatsAndHealth exercises /healthz and /statsz before and
// during drain.
func TestServerStatsAndHealth(t *testing.T) {
	users := testUsers(150, 81)
	e := newEnv(t, users, Config{Workers: 2, QueueDepth: 8})
	facs := testFacilities(4, 4, 82)

	if status, body := e.get(PathHealth); status != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", status, body)
	}
	for i := 0; i < 3; i++ {
		if status, _, _ := e.post(PathTopK, mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 2, Psi: 40})); status != http.StatusOK {
			t.Fatalf("topk warmup: %d", status)
		}
	}
	status, body := e.get(PathStats)
	if status != http.StatusOK {
		t.Fatalf("statsz: %d", status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	if st.Workers != 2 || st.QueueCap != 8 {
		t.Fatalf("statsz config: %+v", st)
	}
	tk := st.Endpoints[PathTopK]
	if tk.Requests < 3 || tk.MeanMillis <= 0 || tk.MaxMillis < tk.MeanMillis {
		t.Fatalf("statsz topk counters: %+v", tk)
	}
	if st.Index.Len != e.srv.Index().Len() || st.Index.Shards != 2 {
		t.Fatalf("statsz index: %+v", st.Index)
	}
	// Each shard reports its base's footprint: at least the 52-byte table
	// row of every two-point trajectory it holds, which is also where a
	// TwoPoint base reads the entry's endpoints.
	for i, sh := range st.Index.PerShard {
		if sh.Mapped || sh.BaseBytes < int64(sh.Len)*52 {
			t.Fatalf("statsz shard %d: %+v", i, sh)
		}
	}

	e.srv.BeginDrain()
	if status, _ := e.get(PathHealth); status != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", status)
	}
	if status, _, _ := e.post(PathTopK, mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 2, Psi: 40})); status != http.StatusServiceUnavailable {
		t.Fatalf("draining topk: %d, want 503", status)
	}
	if status, _ := e.get(PathSnapshot); status != http.StatusServiceUnavailable {
		t.Fatalf("draining snapshot: %d, want 503", status)
	}
}

// TestServerDrainLeavesNoGoroutines proves the shutdown protocol sheds
// every goroutine the serving stack started: after drain + HTTP close +
// Close, the process goroutine count returns to its baseline — upgraded
// exchange connections too, which the HTTP layer neither closes nor
// waits for: one idle, which answers a frame sent while draining with a
// 503 error frame, and one busy, its frame waiting for a slot.
func TestServerDrainLeavesNoGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()

	users := testUsers(200, 91)
	idx, err := trajcover.NewIndex(users, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{Workers: 4, QueueDepth: 8, DefaultTimeout: 10 * time.Second})
	ts := httptest.NewServer(srv.Handler())
	client := ts.Client()
	facs := testFacilities(4, 4, 92)
	body := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 2, Psi: 40})
	for i := 0; i < 8; i++ {
		resp, err := client.Post(ts.URL+PathTopK, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	idle, busy := dialExchange(t, ts.URL), dialExchange(t, ts.URL)
	frame := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: trajcover.Query{Psi: 40}})
	idle.values(frame, len(facs))
	release := blockWorkers(t, srv, 4)
	if _, err := busy.Write(frame); err != nil {
		t.Fatal(err)
	}
	for srv.waiting.Load() != 1 {
		time.Sleep(time.Millisecond)
	}

	srv.BeginDrain()
	if _, er := idle.ask(frame, len(facs)); er == nil || er.Status != http.StatusServiceUnavailable || !er.RetryAfter {
		t.Fatalf("a frame while draining: %+v, want a 503 error frame with the retry flag", er)
	}
	ts.Close()
	srv.Close()
	release()
	client.CloseIdleConnections()
	idle.requireClosed()
	busy.requireClosed()

	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A straggler handler that somehow outlives the HTTP shutdown is
	// refused a slot with 503.
	if status := srv.acquireSlot(context.Background()); status != http.StatusServiceUnavailable {
		t.Fatalf("acquireSlot after Close = %d, want 503", status)
	}
}

// TestServerCloseWaitsForAdmittedWork pins the drain order of slot
// admission: Close turns a handler still waiting for a slot away with
// 503 + Retry-After at once, returns only when the work that holds a
// slot has finished, and every request after it is a 503.
func TestServerCloseWaitsForAdmittedWork(t *testing.T) {
	e := newEnv(t, testUsers(200, 93), Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 10 * time.Second})
	body := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(testFacilities(4, 4, 94)), K: 2, Psi: 40})

	// Admitted work holds the only slot; a request waits behind it.
	if status := e.srv.acquireSlot(context.Background()); status != 0 {
		t.Fatalf("acquireSlot = %d", status)
	}
	type answer struct {
		status int
		hdr    http.Header
	}
	waiter := make(chan answer, 1)
	go func() {
		status, _, hdr := e.post(PathTopK, body)
		waiter <- answer{status, hdr}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.srv.Stats().QueueDepth != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the request never waited for a slot")
		}
		time.Sleep(time.Millisecond)
	}

	closed := make(chan struct{})
	go func() {
		e.srv.Close()
		close(closed)
	}()
	select {
	case a := <-waiter:
		if a.status != http.StatusServiceUnavailable || a.hdr.Get("Retry-After") == "" {
			t.Fatalf("waiter at Close: %d (Retry-After %q), want 503 with Retry-After", a.status, a.hdr.Get("Retry-After"))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the waiter waiting")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while admitted work held a slot")
	case <-time.After(50 * time.Millisecond):
	}
	e.srv.releaseSlot()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return once the work finished")
	}
	if status, _, _ := e.post(PathTopK, body); status != http.StatusServiceUnavailable {
		t.Fatalf("topk after Close: %d, want 503", status)
	}
	if got := e.srv.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue_depth after Close = %d, want 0", got)
	}
}

// TestServerWaiterNeverRuns pins the deadline rule for writes: an insert
// whose deadline passes while it waits for a slot answers 504 and never
// happens, so its ID is free afterwards; its tenant gate slots are back
// the moment it answers.
func TestServerWaiterNeverRuns(t *testing.T) {
	users := testUsers(201, 95)
	e := newEnv(t, users[:200], Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 10 * time.Second})
	release := blockWorkers(t, e.srv, 1)
	ins := users[200]
	pts := make([][2]float64, len(ins.Points))
	for i, p := range ins.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	body := mustBody(t, InsertRequest{ID: uint32(ins.ID), Points: pts, TimeoutMS: 100})
	if status, raw, _ := e.post(PathInsert, body); status != http.StatusGatewayTimeout {
		t.Fatalf("insert behind a taken slot: %d %s, want 504", status, raw)
	}
	if g := e.srv.Stats().Tenants["default"].Gate; g.Inflight != 0 || g.Queued != 0 {
		t.Fatalf("gate after the 504: %+v, want no slot held", g)
	}
	release()
	if n := e.srv.Index().Len(); n != 200 {
		t.Fatalf("Len = %d after a 504 insert, want 200: the waiter ran", n)
	}
	if status, raw, _ := e.post(PathInsert, body); status != http.StatusOK {
		t.Fatalf("the same insert once a slot is free: %d %s, want 200", status, raw)
	}
}

// newWALEnv is newEnv over a WAL-backed index: the server under test
// persists every acknowledged write to a temp WAL directory, the mirror
// stays in-memory (the wire behavior must not depend on durability).
func newWALEnv(t *testing.T, base []*trajcover.Trajectory, cfg Config) *env {
	t.Helper()
	idx, err := trajcover.OpenIndex(trajcover.WALOptions{
		Dir:  t.TempDir(),
		Sync: trajcover.WALSyncAlways,
	}, trajcover.LivePolicy{Manual: true}, func() (*trajcover.Index, error) {
		return trajcover.NewIndex(base, liveOpts())
	})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := trajcover.NewIndex(base, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, cfg)
	ts := httptest.NewServer(srv.Handler())
	e := &env{t: t, srv: srv, ts: ts, mirror: mirror, client: ts.Client()}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		idx.Close()
	})
	return e
}

// TestServerWALCheckpointAndStats covers the durability wiring end to
// end: /statsz grows a wal section whose counters move with traffic,
// POST /v1/checkpoint truncates the log while concurrent writes keep
// landing, and GET /v1/snapshot on a WAL-backed index both streams a
// restorable snapshot and checkpoints (segment footprint resets).
func TestServerWALCheckpointAndStats(t *testing.T) {
	users := testUsers(400, 101)
	e := newWALEnv(t, users[:300], Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 10 * time.Second})
	facs := testFacilities(6, 5, 102)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}

	writes := 0
	for _, u := range users[300:350] {
		pts := make([][2]float64, len(u.Points))
		for i, p := range u.Points {
			pts[i] = [2]float64{p.X, p.Y}
		}
		if status, body, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: uint32(u.ID), Points: pts})); status != http.StatusOK {
			t.Fatalf("insert: %d %s", status, body)
		}
		writes++
	}
	if status, _, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: 7})); status != http.StatusOK {
		t.Fatal("delete failed")
	}
	writes++

	// A duplicate ID is a client error (409), not a durability failure.
	if status, body, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: 300, Points: [][2]float64{{1, 1}, {2, 2}}})); status != http.StatusConflict {
		t.Fatalf("duplicate insert: %d %s, want 409", status, body)
	}

	status, body := e.get(PathStats)
	if status != http.StatusOK {
		t.Fatalf("statsz: %d", status)
	}
	var st Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	if st.WAL == nil {
		t.Fatalf("statsz has no wal section: %s", body)
	}
	if st.WAL.Records < uint64(writes) || st.WAL.Segments < 1 || st.WAL.Bytes <= 0 {
		t.Fatalf("wal counters did not move: %+v after %d writes", st.WAL, writes)
	}
	if st.WAL.Fsyncs < 1 || st.WAL.MaxFsyncMillis < 0 {
		t.Fatalf("wal fsync counters: %+v", st.WAL)
	}
	if st.WAL.SinceCheckpointSeconds < 0 || st.WAL.SinceCheckpointSeconds > 3600 {
		t.Fatalf("wal since_checkpoint_seconds implausible: %v", st.WAL.SinceCheckpointSeconds)
	}

	// Checkpoint must not stop writes: keep inserting while it runs.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var insertErr error
	var mu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, u := range users[350:] {
			select {
			case <-stop:
				return
			default:
			}
			pts := make([][2]float64, len(u.Points))
			for j, p := range u.Points {
				pts[j] = [2]float64{p.X, p.Y}
			}
			b := mustBody(t, InsertRequest{ID: uint32(u.ID), Points: pts})
			resp, err := e.client.Post(e.ts.URL+PathInsert, "application/json", bytes.NewReader(b))
			if err != nil {
				mu.Lock()
				insertErr = err
				mu.Unlock()
				return
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				mu.Lock()
				insertErr = fmt.Errorf("concurrent insert %d: %d %s", i, resp.StatusCode, out)
				mu.Unlock()
				return
			}
		}
	}()
	status, body, _ = e.post(PathCheckpoint, nil)
	close(stop)
	wg.Wait()
	if insertErr != nil {
		t.Fatalf("insert during checkpoint: %v", insertErr)
	}
	if status != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", status, body)
	}
	var ck CheckpointResponse
	if err := json.Unmarshal(body, &ck); err != nil {
		t.Fatalf("checkpoint decode: %v", err)
	}
	if !ck.OK || ck.WALSegments < 1 || ck.WALBytes < 0 {
		t.Fatalf("checkpoint response: %+v", ck)
	}

	// GET on the checkpoint endpoint is a method error.
	resp, err := e.client.Get(e.ts.URL + PathCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET checkpoint: %d, want 405", resp.StatusCode)
	}

	// /v1/snapshot on a WAL-backed index streams a restorable TQLIVE02
	// image and checkpoints as a side effect: afterwards the log holds
	// only the fresh post-cut segment.
	status, raw := e.get(PathSnapshot)
	if status != http.StatusOK {
		t.Fatalf("snapshot: %d", status)
	}
	restored, err := trajcover.ReadLiveSnapshot(bytes.NewReader(raw), trajcover.LivePolicy{Manual: true})
	if err != nil {
		t.Fatalf("restore streamed snapshot: %v", err)
	}
	if restored.Len() != e.srv.Index().Len() {
		t.Fatalf("restored len %d, served %d", restored.Len(), e.srv.Index().Len())
	}
	want, err := e.srv.Index().ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(MarshalValuesResponse(got), MarshalValuesResponse(want)) {
		t.Fatal("restored snapshot answers differ from served index")
	}
	status, body = e.get(PathStats)
	if status != http.StatusOK {
		t.Fatalf("statsz after snapshot: %d", status)
	}
	st = Stats{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statsz decode: %v", err)
	}
	if st.WAL == nil || st.WAL.Segments != 1 {
		t.Fatalf("snapshot did not truncate the WAL: %+v", st.WAL)
	}
	if st.WAL.SinceCheckpointSeconds > 60 {
		t.Fatalf("since_checkpoint_seconds did not reset: %v", st.WAL.SinceCheckpointSeconds)
	}
}

// TestServerCheckpointWithoutWAL pins the 400 on /v1/checkpoint for an
// index serving without a WAL directory.
func TestServerCheckpointWithoutWAL(t *testing.T) {
	e := newEnv(t, testUsers(50, 111), Config{Workers: 1, QueueDepth: 4})
	status, body, _ := e.post(PathCheckpoint, nil)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "no WAL") {
		t.Fatalf("checkpoint without WAL: %d %s, want 400", status, body)
	}
}
