package server

// Tests for the two serving-path additions of the memory-tier work:
// the NDJSON streaming variant of /v1/servicevalues and the
// epoch-keyed result cache. Both are pinned against the batch path as
// oracle — streamed values must reassemble bit-identical to the batch
// body, and cached answers must never be distinguishable from
// uncached ones, even under concurrent writes.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trajcover/trajcover"
)

// streamLine is the union of the three NDJSON line shapes.
type streamLine struct {
	Start  *int      `json:"start"`
	Values []float64 `json:"values"`
	Done   *bool     `json:"done"`
	Count  int       `json:"count"`
	Error  *string   `json:"error"`
}

// readStream POSTs a streaming servicevalues request and parses the
// NDJSON body into lines.
func (e *env) readStream(query string, body []byte) (int, string, []streamLine) {
	e.t.Helper()
	resp, err := e.client.Post(e.ts.URL+PathServiceValues+query, "application/json", bytes.NewReader(body))
	if err != nil {
		e.t.Fatalf("POST stream: %v", err)
	}
	defer resp.Body.Close()
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var ln streamLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			e.t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		lines = append(lines, ln)
	}
	if err := sc.Err(); err != nil {
		e.t.Fatalf("stream read: %v", err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), lines
}

// TestServerStreamServiceValues drives /v1/servicevalues?stream=1 end
// to end: the reassembled NDJSON chunks must be bit-identical to the
// batch endpoint's values (compared through the same JSON encoding),
// chunks must arrive in facility order with the requested size, and
// the stream must end with a done trailer.
func TestServerStreamServiceValues(t *testing.T) {
	users := testUsers(200, 61)
	e := newEnv(t, users, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(17, 6, 62)
	body := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 40, Workers: 1})

	status, batch, _ := e.post(PathServiceValues, body)
	if status != http.StatusOK {
		t.Fatalf("batch status %d: %s", status, batch)
	}
	var batchResp ValuesResponse
	if err := json.Unmarshal(batch, &batchResp); err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 5, 17, 100} {
		status, ct, lines := e.readStream(fmt.Sprintf("?stream=1&chunk=%d", chunk), body)
		if status != http.StatusOK {
			t.Fatalf("chunk %d: status %d", chunk, status)
		}
		if ct != "application/x-ndjson" {
			t.Fatalf("chunk %d: content-type %q", chunk, ct)
		}
		if len(lines) == 0 {
			t.Fatalf("chunk %d: empty stream", chunk)
		}
		last := lines[len(lines)-1]
		if last.Done == nil || !*last.Done || last.Count != len(facs) {
			t.Fatalf("chunk %d: missing/short trailer: %+v", chunk, last)
		}
		var got []float64
		for i, ln := range lines[:len(lines)-1] {
			if ln.Error != nil {
				t.Fatalf("chunk %d: in-band error: %s", chunk, *ln.Error)
			}
			if ln.Start == nil || *ln.Start != len(got) {
				t.Fatalf("chunk %d: line %d start %v, want %d", chunk, i, ln.Start, len(got))
			}
			want := chunk
			if rem := len(facs) - len(got); want > rem {
				want = rem
			}
			if len(ln.Values) != want {
				t.Fatalf("chunk %d: line %d has %d values, want %d", chunk, i, len(ln.Values), want)
			}
			got = append(got, ln.Values...)
		}
		// Compare through the canonical JSON encoding: equal bytes mean
		// equal float bit patterns.
		if !bytes.Equal(MarshalValuesResponse(got), MarshalValuesResponse(batchResp.Values)) {
			t.Fatalf("chunk %d: streamed values differ from batch", chunk)
		}
	}

	// Default chunk (no chunk param) must also work.
	if status, _, lines := e.readStream("?stream=1", body); status != http.StatusOK || len(lines) < 2 {
		t.Fatalf("default chunk: status %d, %d lines", status, len(lines))
	}

	// Malformed chunk values are rejected before any work.
	for _, bad := range []string{"abc", "0", "-3"} {
		if status, _, _ := e.readStream("?stream=1&chunk="+bad, body); status != http.StatusBadRequest {
			t.Fatalf("chunk %q: status %d, want 400", bad, status)
		}
	}

	// Streams resolve tenants like the batch path: unknown tenant 404.
	unknown := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 40, Tenant: "ghost"})
	if status, _, _ := e.readStream("?stream=1", unknown); status != http.StatusNotFound {
		t.Fatalf("unknown tenant stream: status %d, want 404", status)
	}
}

// TestServerResultCache pins the cache protocol at the HTTP boundary:
// a repeated identical request is served from cache byte-identically
// (hit counter moves, body unchanged), a write invalidates by
// construction (the version key rotates, so the next read recomputes
// and reflects the write), and streamed requests bypass the cache.
func TestServerResultCache(t *testing.T) {
	users := testUsers(200, 71)
	base, feed := users[:150], users[150:]
	e := newEnv(t, base, Config{
		Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second,
		ResultCacheBytes: 1 << 20,
	})
	facs := testFacilities(8, 6, 72)
	fjs := FacilitiesJSON(facs)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	svBody := mustBody(t, QueryRequest{Facilities: fjs, Psi: 40, Workers: 1})
	topkBody := mustBody(t, QueryRequest{Facilities: fjs, K: 4, Psi: 40, Workers: 1})

	cacheStats := func() (hits, misses uint64, entries int) {
		t.Helper()
		rc := e.srv.Stats().ResultCache
		if rc == nil {
			t.Fatal("ResultCache stats missing with cache enabled")
		}
		return rc.Hits, rc.Misses, rc.Entries
	}

	status, first, _ := e.post(PathServiceValues, svBody)
	if status != http.StatusOK {
		t.Fatalf("servicevalues: status %d: %s", status, first)
	}
	hits0, _, _ := cacheStats()
	status, second, _ := e.post(PathServiceValues, svBody)
	if status != http.StatusOK {
		t.Fatalf("servicevalues repeat: status %d", status)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("cached body differs:\n first: %s\nsecond: %s", first, second)
	}
	hits1, _, _ := cacheStats()
	if hits1 != hits0+1 {
		t.Fatalf("servicevalues repeat: hits %d -> %d, want +1", hits0, hits1)
	}

	// TopK is cached independently under its own endpoint + k.
	status, tk1, _ := e.post(PathTopK, topkBody)
	if status != http.StatusOK {
		t.Fatalf("topk: status %d: %s", status, tk1)
	}
	status, tk2, _ := e.post(PathTopK, topkBody)
	if status != http.StatusOK || !bytes.Equal(tk1, tk2) {
		t.Fatalf("topk repeat: status %d, equal %v", status, bytes.Equal(tk1, tk2))
	}
	hits2, _, _ := cacheStats()
	if hits2 != hits1+1 {
		t.Fatalf("topk repeat: hits %d -> %d, want +1", hits1, hits2)
	}

	// A write rotates the version: the same read recomputes and must
	// reflect the insert, matching a direct call on the mirror.
	u := feed[0]
	pts := make([][2]float64, len(u.Points))
	for i, p := range u.Points {
		pts[i] = [2]float64{p.X, p.Y}
	}
	if status, body, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: uint32(u.ID), Points: pts})); status != http.StatusOK {
		t.Fatalf("insert: status %d: %s", status, body)
	}
	if err := e.mirror.Insert(u); err != nil {
		t.Fatal(err)
	}
	status, third, _ := e.post(PathServiceValues, svBody)
	if status != http.StatusOK {
		t.Fatalf("servicevalues after insert: status %d", status)
	}
	want, err := e.mirror.ServiceValuesCtx(context.Background(), facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(third, MarshalValuesResponse(want)) {
		t.Fatalf("post-insert read does not reflect the write:\n got: %s\nwant: %s", third, MarshalValuesResponse(want))
	}
	if hits3, _, _ := cacheStats(); hits3 != hits2 {
		t.Fatalf("post-insert read hit a stale entry: hits %d -> %d", hits2, hits3)
	}

	// Streamed requests bypass the cache entirely.
	_, _, before := cacheStats()
	if status, _, _ := e.readStream("?stream=1&chunk=4", svBody); status != http.StatusOK {
		t.Fatalf("stream: status %d", status)
	}
	if _, _, after := cacheStats(); after != before {
		t.Fatalf("stream changed cache entries %d -> %d", before, after)
	}
}

// TestServerCacheConsistencyUnderConcurrentWrites is the cache's
// linearizability property test: with the cache enabled, readers
// hammering one identical request while a writer applies a scripted
// history must (a) only ever see bodies a fresh build of SOME prefix
// of the history could produce, and (b) immediately after a write is
// acknowledged, see a body achievable at a prefix at least that new —
// i.e. the cache can never serve an answer from before an
// acknowledged write. Every read is byte-identical, so after the first
// they all arrive through the raw-byte alias and decode only when a
// write has moved the version. Run under -race this also exercises the
// capture/compute/recheck protocol for data races.
func TestServerCacheConsistencyUnderConcurrentWrites(t *testing.T) {
	users := testUsers(260, 81)
	base, feed := users[:200], users[200:]
	e := newEnv(t, base, Config{
		Workers: 2, QueueDepth: 64, DefaultTimeout: 30 * time.Second,
		ResultCacheBytes: 1 << 20,
	})
	facs := testFacilities(6, 6, 82)
	fjs := FacilitiesJSON(facs)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	svBody := mustBody(t, QueryRequest{Facilities: fjs, Psi: 40, Workers: 1})

	type write struct {
		insert *trajcover.Trajectory
		delete trajcover.ID
	}
	var script []write
	for i := 0; i < 25; i++ {
		script = append(script, write{insert: feed[i]}, write{delete: base[i*7].ID})
	}

	// allowedMax[body] = newest prefix index that can produce body.
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
	allowedMax := map[string]int{}
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
		allowedMax[string(MarshalValuesResponse(vs))] = i
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

	readOnce := func() (string, error) {
		resp, err := e.client.Post(e.ts.URL+PathServiceValues, "application/json", bytes.NewReader(svBody))
		if err != nil {
			return "", err
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", resp.StatusCode, got)
		}
		return string(got), nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var readerErr error
	var readerOnce sync.Once
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			body, err := readOnce()
			if err != nil {
				readerOnce.Do(func() { readerErr = err })
				return
			}
			if _, ok := allowedMax[body]; !ok {
				readerOnce.Do(func() { readerErr = fmt.Errorf("answer matches no prefix of the write history: %s", body) })
				return
			}
		}
	}()

	for i, wr := range script {
		if wr.insert != nil {
			u := wr.insert
			pts := make([][2]float64, len(u.Points))
			for j, p := range u.Points {
				pts[j] = [2]float64{p.X, p.Y}
			}
			status, body, _ := e.post(PathInsert, mustBody(t, InsertRequest{ID: uint32(u.ID), Points: pts}))
			if status != http.StatusOK {
				t.Fatalf("insert %d: status %d: %s", u.ID, status, body)
			}
		} else {
			status, body, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: uint32(wr.delete)}))
			if status != http.StatusOK {
				t.Fatalf("delete %d: status %d: %s", wr.delete, status, body)
			}
		}
		// Read-your-writes through the cache: the answer must be
		// achievable at prefix >= i+1 — a cached pre-write body whose
		// newest producing prefix is older fails here.
		body, err := readOnce()
		if err != nil {
			t.Fatal(err)
		}
		maxIdx, ok := allowedMax[body]
		if !ok {
			t.Fatalf("after write %d: answer matches no prefix: %s", i, body)
		}
		if maxIdx < i+1 {
			t.Fatalf("after write %d: stale cached answer (newest producing prefix %d)", i+1, maxIdx)
		}
	}
	close(stop)
	wg.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}

	rc := e.srv.Stats().ResultCache
	if rc == nil || rc.Hits+rc.Misses == 0 {
		t.Fatal("cache saw no traffic during the property test")
	}
	// Every read sends the same bytes, so all but each reader's first go
	// through the alias — each write above turns the next one into an
	// alias hit whose answer lookup misses and decodes.
	if rc.AliasHits == 0 || rc.AliasMisses > 2 {
		t.Fatalf("alias_hits %d, alias_misses %d: the byte-identical reads did not take the alias path", rc.AliasHits, rc.AliasMisses)
	}
}
