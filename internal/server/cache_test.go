package server

// Tests for the epoch-keyed result cache, pinned against the uncached
// path as oracle: cached answers must never be distinguishable from
// uncached ones, even under concurrent writes.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/trajcover/trajcover"
)

// TestServerResultCache pins the cache protocol at the HTTP boundary:
// a repeated identical request is served from cache byte-identically
// (hit counter moves, body unchanged), a write invalidates by
// construction (the version key rotates, so the next read recomputes
// and reflects the write).
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

}

// TestServerSetIndexRefusesResultCache: cache keys carry an index's
// write version but not its identity, so after a swap the old index's
// cached answer would answer for the new one — two fresh indexes are both
// at version 0. SetIndex on a server with a result cache panics; without
// one, the read after the swap is the new index's answer.
func TestServerSetIndexRefusesResultCache(t *testing.T) {
	users := testUsers(200, 75)
	facs := testFacilities(8, 6, 76)
	body := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 40, Workers: 1})
	next, err := trajcover.NewIndex(users[100:], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	vs, err := next.ServiceValues(facs, trajcover.Query{Scenario: trajcover.Binary, Psi: 40}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := MarshalValuesResponse(vs)

	for _, cacheBytes := range []int64{1 << 20, 0} {
		e := newEnv(t, users[:100], Config{Workers: 1, DefaultTimeout: 30 * time.Second, ResultCacheBytes: cacheBytes})
		status, old, _ := e.post(PathServiceValues, body)
		if status != http.StatusOK {
			t.Fatalf("cache %d: status %d: %s", cacheBytes, status, old)
		}
		if bytes.Equal(old, want) {
			t.Fatal("the two indexes answer alike: the fixture cannot tell them apart")
		}
		panicked := func() (p any) {
			defer func() { p = recover() }()
			e.srv.SetIndex(next)
			return nil
		}()
		if cacheBytes > 0 {
			if panicked == nil {
				_, got, _ := e.post(PathServiceValues, body)
				t.Fatalf("SetIndex on a cached server did not panic; the next read answered %s, the new index %s", got, want)
			}
			continue
		}
		if panicked != nil {
			t.Fatalf("SetIndex without a cache panicked: %v", panicked)
		}
		if status, got, _ := e.post(PathServiceValues, body); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("after the swap: status %d, %s; the new index answers %s", status, got, want)
		}
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
