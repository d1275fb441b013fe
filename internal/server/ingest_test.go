package server

// Tests for request ingest: the one-pass coordinate decoder's strict
// pair shapes, the raw-byte alias probe in front of DecodeQueryRequest
// (never across tenants or endpoints, never for an invalid body, never a
// stale answer), the one-allocation body read, and the allocation pins
// that keep a cache hit from ever decoding again.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
)

// TestCoordinatePairShapes pins what a coordinate array may look like:
// every pair exactly two numbers (anything else is a 400 on all four
// endpoints that take coordinates — the reflection decoder zero-filled
// short pairs and truncated long ones), null and empty arrays still "no
// stops", and every JSON number spelling decoded to the bits
// strconv.ParseFloat gives. Then what a facility object may look like:
// its two keys spelled exactly, each once.
func TestCoordinatePairShapes(t *testing.T) {
	query := func(stops string) string {
		return `{"facilities":[{"id":1,"stops":` + stops + `}],"k":1,"psi":10}`
	}
	insert := func(points string) string { return `{"id":9001,"points":` + points + `}` }

	rejected := []string{
		`[[1]]`, `[[]]`, `[null]`, `[[null,2]]`, `[[1,null]]`, `[[1,2,3]]`,
		`[[1,2],[4]]`, `[[1,2],[[3,4]]]`, `[["1",2]]`, `[[true,2]]`, `[{"x":1}]`,
		`[1,2]`, `7`, `"[[1,2]]"`, `{}`, `[[1e999,2]]`, `[[1,-1e999]]`,
	}
	for _, stops := range rejected {
		_, _, _, err := DecodeQueryRequest([]byte(query(stops)), true)
		if err == nil {
			t.Errorf("stops %s: accepted", stops)
		} else if _, ok := err.(*badRequest); !ok {
			t.Errorf("stops %s: error %v is not a badRequest", stops, err)
		}
		// Two leading good points, so only the pair shape can be at fault.
		points := `[[1,2],[3,4],` + strings.TrimPrefix(stops, `[`)
		if !strings.HasPrefix(stops, `[`) {
			points = stops
		}
		if _, _, err := DecodeInsertRequest([]byte(insert(points))); err == nil {
			t.Errorf("points %s: accepted", points)
		}
	}
	for _, stops := range []string{`null`, `[]`, ` [ ] `} {
		_, _, _, err := DecodeQueryRequest([]byte(query(stops)), true)
		if err == nil || !strings.Contains(err.Error(), "has no stops") {
			t.Errorf("stops %s: err = %v, want \"has no stops\"", stops, err)
		}
	}

	// What a facility object may spell. A facility that is {} or null
	// is the zero facility, which has no stops; a list that is null is no
	// facilities at all.
	facilities := func(list string) string { return `{"facilities":` + list + `,"k":1,"psi":10}` }
	for _, list := range []string{`[{}]`, `[ null ]`, `[{"id":null,"stops":null}]`, `[{"stops":[]}]`} {
		_, _, _, err := DecodeQueryRequest([]byte(facilities(list)), true)
		if err == nil || !strings.Contains(err.Error(), "facility 0 has no stops") {
			t.Errorf("facilities %s: err = %v, want \"facility 0 has no stops\"", list, err)
		}
	}
	if req, facs, _, err := DecodeQueryRequest([]byte(facilities(`null`)), true); err != nil || len(facs) != 0 || len(req.Facilities) != 0 {
		t.Errorf("facilities null: %d facilities, err = %v; want none, no error", len(facs), err)
	}
	// encoding/json folds a key's case (and ſ to s), unescapes it, and lets
	// the last of two equal keys win; the one-pass decoder takes "id" and
	// "stops" spelled exactly, once each, and names any other key in its
	// 400 — a tightening, so the reference still accepts every one.
	keys := []struct{ facility, want string }{
		{`{"ID":1,"stops":[[1,2]]}`, `unknown key "ID"`},
		{`{"id":1,"Stops":[[1,2]]}`, `unknown key "Stops"`},
		{`{"Id":1,"STOPS":[[1,2]]}`, `unknown key "Id"`},
		{`{"\u0069d":1,"stops":[[1,2]]}`, `unknown key "\\u0069d"`},
		{`{"id":1,"\u0073tops":[[1,2]]}`, `unknown key "\\u0073tops"`},
		{`{"id":1,"ſtops":[[1,2]]}`, `unknown key "ſtops"`},
		{`{"id":1,"id":2,"stops":[[1,2]]}`, `key "id" given twice`},
		{`{"id":1,"stops":[[1,2]],"stops":[[3,4]]}`, `key "stops" given twice`},
		{`{"stops":null,"id":1,"stops":[[3,4]]}`, `key "stops" given twice`},
	}
	for _, tc := range keys {
		body := []byte(facilities(`[{"id":2,"stops":[[5,6]]},` + tc.facility + `]`))
		if _, _, _, err := refDecodeQueryRequest(body, true); err != nil {
			t.Errorf("facility %s: the reference rejects it too (%v): not a tightening", tc.facility, err)
		}
		_, _, _, err := DecodeQueryRequest(body, true)
		if _, ok := err.(*badRequest); !ok || !strings.Contains(err.Error(), "facilities[1]: "+tc.want) {
			t.Errorf("facility %s: err = %v, want a badRequest saying %s", tc.facility, err, tc.want)
		}
	}

	// One pair past a limit is the limit's own error, however the array
	// was sized.
	pairs := func(n int) string { return "[" + strings.Repeat("[1,2],", n-1) + "[3,4]]" }
	if _, _, _, err := DecodeQueryRequest([]byte(query(pairs(MaxStops+1))), true); err == nil || !strings.Contains(err.Error(), "too many stops") {
		t.Errorf("%d stops: err = %v, want \"too many stops\"", MaxStops+1, err)
	}
	if _, _, err := DecodeInsertRequest([]byte(insert(pairs(MaxPoints + 1)))); err == nil || !strings.Contains(err.Error(), "too many points") {
		t.Errorf("%d points: err = %v, want \"too many points\"", MaxPoints+1, err)
	}
	if req, _, err := DecodeInsertRequest([]byte(insert(pairs(MaxPoints)))); err != nil || len(req.Points) != MaxPoints {
		t.Errorf("%d points: %v", MaxPoints, err)
	}

	accepted := []struct {
		stops string
		want  [][2]float64
	}{
		{`[[1,2]]`, [][2]float64{{1, 2}}},
		{" [ [ 1.5e2 ,\t-0 ] ,\n[-0.0,1E-3],[ 0.1e+1,2e0 ]\r] ", [][2]float64{{150, math.Copysign(0, -1)}, {math.Copysign(0, -1), 0.001}, {1, 2}}},
		{`[[4.9e-324,1.7976931348623157e308]]`, [][2]float64{{math.SmallestNonzeroFloat64, math.MaxFloat64}}},
		{`[[1e-999,0.30000000000000004]]`, [][2]float64{{0, 0.30000000000000004}}},
		{`[[123456789012345678901234567890123456789,-1E+2]]`, [][2]float64{{123456789012345678901234567890123456789, -100}}},
	}
	for _, tc := range accepted {
		req, facs, _, err := DecodeQueryRequest([]byte(query(tc.stops)), true)
		if err != nil {
			t.Errorf("stops %s: %v", tc.stops, err)
			continue
		}
		if !sameBits(req.Facilities[0].Stops, tc.want) {
			t.Errorf("stops %s decoded to %v, want %v", tc.stops, req.Facilities[0].Stops, tc.want)
		}
		for j, st := range facs[0].Stops {
			if math.Float64bits(st.X) != math.Float64bits(tc.want[j][0]) || math.Float64bits(st.Y) != math.Float64bits(tc.want[j][1]) {
				t.Errorf("stops %s: facility stop %d = %v, want %v", tc.stops, j, st, tc.want[j])
			}
		}
	}

	// The same shapes over HTTP, cache on so the alias path sees them
	// too: 400 on every endpoint that takes coordinates, and the insert
	// the old decoder would have stored as (1,2),(4,0) stores nothing.
	e := newEnv(t, testUsers(50, 11), Config{Workers: 1, QueueDepth: 4, ResultCacheBytes: 1 << 20})
	for _, stops := range rejected {
		for _, path := range []string{PathTopK, PathServiceValues} {
			if status, body, _ := e.post(path, []byte(query(stops))); status != http.StatusBadRequest {
				t.Errorf("%s stops %s: status %d (%s), want 400", path, stops, status, body)
			}
		}
	}
	for _, tc := range keys {
		if status, body, _ := e.post(PathTopK, []byte(facilities(`[`+tc.facility+`]`))); status != http.StatusBadRequest || !strings.Contains(errorOf(t, body), tc.want) {
			t.Errorf("facility %s: status %d (%s), want 400 saying %s", tc.facility, status, body, tc.want)
		}
	}
	before := e.srv.Index().Len()
	for _, points := range []string{`[[1,2,3],[4]]`, `[[1,2],[3]]`, `[[1,2],null]`, `[[1,2],[3,4,5]]`} {
		if status, body, _ := e.post(PathInsert, []byte(insert(points))); status != http.StatusBadRequest {
			t.Errorf("insert points %s: status %d (%s), want 400", points, status, body)
		}
	}
	if after := e.srv.Index().Len(); after != before {
		t.Errorf("malformed inserts changed the corpus: %d -> %d trajectories", before, after)
	}
}

// TestStrictDecoderReuse drives the pooled envelope decoder through
// every way a body can end — clean, trailing whitespace, a stray brace
// the trailing-data check lets pass, trailing data, malformed, truncated,
// too large to pool — and after each one decodes a known body: it must
// come out exactly as from a fresh decoder, whatever the last body left
// behind. Then the same from many goroutines at once (under -race).
func TestStrictDecoderReuse(t *testing.T) {
	good := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(testFacilities(5, 4, 61)), K: 2, Psi: 40})
	want := func() [32]byte {
		var ref QueryRequest
		if err := refUnmarshalStrict(good, &ref); err != nil {
			t.Fatal(err)
		}
		return CanonicalQueryHash(PathTopK, &ref, ref.K, trajcover.Query{Psi: ref.Psi})
	}()
	checkGood := func(after string) {
		t.Helper()
		req, _, q, err := DecodeQueryRequest(good, true)
		if err != nil {
			t.Fatalf("after %s: good body rejected: %v", after, err)
		}
		if got := CanonicalQueryHash(PathTopK, req, req.K, q); got != want {
			t.Fatalf("after %s: good body decoded differently", after)
		}
	}
	big := `{"id":1,"tenant":"` + strings.Repeat("x", maxPooledBody) + `"}`
	endings := []struct {
		name, body string
		ok         bool
	}{
		{"clean", `{"id":7}`, true},
		{"trailing whitespace", "{\"id\":7}\n \t", true},
		{"stray brace", `{"id":7}}`, true},
		{"stray bracket and more", `{"id":7}] {"id":8}`, true},
		{"trailing value", `{"id":1}{"id":2}`, false},
		{"malformed", `{"id":`, false},
		{"truncated string", `{"tenant":"abc`, false},
		{"unknown field", `{"id":7,"idd":8}`, false},
		{"not json", "\x00\x01", false},
		{"empty", ``, false},
		{"too large to pool", big, true},
	}
	checkGood("nothing")
	for _, e := range endings {
		for i := 0; i < 2; i++ {
			if _, err := DecodeDeleteRequest([]byte(e.body)); (err == nil) != e.ok {
				t.Fatalf("%s: err = %v, want ok = %v", e.name, err, e.ok)
			}
			checkGood(e.name)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			mine := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(testFacilities(3+g, 4, int64(70+g))), K: 1, Psi: 40})
			var ref QueryRequest
			if err := refUnmarshalStrict(mine, &ref); err != nil {
				t.Error(err)
				return
			}
			want := CanonicalQueryHash(PathTopK, &ref, ref.K, trajcover.Query{Psi: ref.Psi})
			for i := 0; i < 200; i++ {
				if i%3 == g%3 {
					DecodeDeleteRequest([]byte(endings[i%len(endings)].body))
				}
				req, _, q, err := DecodeQueryRequest(mine, true)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if CanonicalQueryHash(PathTopK, req, req.K, q) != want {
					t.Errorf("goroutine %d: body decoded differently on iteration %d", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// chunked hides a reader's length from net/http, so the request goes out
// with Transfer-Encoding: chunked and no Content-Length.
type chunked struct{ io.Reader }

// TestReadBodyChunked covers the body read's other arm: a request with
// no declared length is read to EOF under the same cap.
func TestReadBodyChunked(t *testing.T) {
	e := newEnv(t, testUsers(50, 12), Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 4096})
	facs := testFacilities(3, 4, 13)
	body := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 2, Psi: 40})
	status, sized, _ := e.post(PathTopK, body)
	if status != http.StatusOK {
		t.Fatalf("sized body: status %d: %s", status, sized)
	}
	post := func(body []byte) (int, []byte) {
		t.Helper()
		resp, err := e.client.Post(e.ts.URL+PathTopK, "application/json", chunked{bytes.NewReader(body)})
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, out
	}
	if status, got := post(body); status != http.StatusOK || !bytes.Equal(got, sized) {
		t.Fatalf("chunked body: status %d, answer %s, want %s", status, got, sized)
	}
	big := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(testFacilities(40, 8, 14)), K: 2, Psi: 40})
	if status, got := post(big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked %d-byte body over a 4096 cap: status %d (%s), want 413", len(big), status, got)
	}
}

// cacheCounters reads /statsz's result_cache section.
func cacheCounters(t *testing.T, s *Server) (st struct {
	hits, misses, aliasHits, aliasMisses uint64
	bytes                                int64
}) {
	t.Helper()
	rc := s.Stats().ResultCache
	if rc == nil {
		t.Fatal("ResultCache stats missing with cache enabled")
	}
	st.hits, st.misses, st.aliasHits, st.aliasMisses, st.bytes = rc.Hits, rc.Misses, rc.AliasHits, rc.AliasMisses, rc.Bytes
	return st
}

// TestAliasNeverCrossesTenants sends the same bytes under different
// X-Tenant headers, and header-less with a body tenant: every answer
// must be its own tenant's, however the aliases were warmed, and a
// header/body mismatch stays a 400 after the same bytes were aliased
// under an agreeing header.
func TestAliasNeverCrossesTenants(t *testing.T) {
	e := newMultiEnv(t, "", Config{Workers: 2, QueueDepth: 16, ResultCacheBytes: 1 << 20})
	facs := testFacilities(6, 5, 21)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 60}
	want := map[string][]byte{}
	for i, tid := range []string{"alpha", "beta"} {
		users := testUsers(80, int64(22+i))
		for _, u := range users {
			e.mustPost(PathInsert, tid, insertBody(t, u, ""), http.StatusOK)
		}
		mirror, err := trajcover.NewIndex(users, mirrorOpts())
		if err != nil {
			t.Fatal(err)
		}
		res, err := mirror.TopK(facs, 3, q)
		if err != nil {
			t.Fatal(err)
		}
		want[tid] = MarshalTopKResponse(res)
	}
	if bytes.Equal(want["alpha"], want["beta"]) {
		t.Fatal("fixture: both tenants answer alike, a crossing would go unseen")
	}

	plain := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 3, Psi: 60})
	named := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 3, Psi: 60, Tenant: "alpha"})
	// Three passes: alias miss, alias + result hit, and again.
	for pass := 0; pass < 3; pass++ {
		for _, tid := range []string{"alpha", "beta"} {
			if got, _ := e.mustPost(PathTopK, tid, plain, http.StatusOK); !bytes.Equal(got, want[tid]) {
				t.Fatalf("pass %d: X-Tenant %s answered %s, want %s", pass, tid, got, want[tid])
			}
		}
		// The body names alpha: fine without a header and under alpha's,
		// a mismatch under beta's — every time, whatever is aliased.
		for _, hdr := range []string{"", "alpha"} {
			if got, _ := e.mustPost(PathTopK, hdr, named, http.StatusOK); !bytes.Equal(got, want["alpha"]) {
				t.Fatalf("pass %d: body tenant alpha under header %q answered %s, want %s", pass, hdr, got, want["alpha"])
			}
		}
		e.mustPost(PathTopK, "beta", named, http.StatusBadRequest)
		// No header and no body tenant is the default tenant, which this
		// registry does not have.
		e.mustPost(PathTopK, "", plain, http.StatusNotFound)
	}
	if st := cacheCounters(t, e.srv); st.aliasHits == 0 {
		t.Fatal("the repeats never took the alias path")
	}
}

// TestAliasProbe walks one server through the probe's contract: a repeat
// is one alias hit and one answer hit; a body differing only in workers
// and whitespace shares the answer on first sight and then has its own
// alias; a write between two identical requests recomputes to what a
// fresh build answers; an invalid body is a 400 every time and costs no
// cache bytes; and an alias belongs to its endpoint.
func TestAliasProbe(t *testing.T) {
	users := testUsers(200, 31)
	base, feed := users[:150], users[150:]
	e := newEnv(t, base, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second, ResultCacheBytes: 1 << 20})
	facs := testFacilities(8, 6, 32)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	topkOf := func(idx *trajcover.Index) []byte {
		t.Helper()
		res, err := idx.TopK(facs, 4, q)
		if err != nil {
			t.Fatal(err)
		}
		return MarshalTopKResponse(res)
	}
	body := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 4, Psi: 40, Workers: 1})
	// Same request to the index, different bytes: indented, workers and
	// timeout_ms set.
	var spaced bytes.Buffer
	if err := json.Indent(&spaced, mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), K: 4, Psi: 40, Workers: 3, TimeoutMS: 20_000}), "", "  "); err != nil {
		t.Fatal(err)
	}

	post := func(stage, path string, body []byte, wantStatus int, wantBody []byte) {
		t.Helper()
		status, got, _ := e.post(path, body)
		if status != wantStatus || (wantBody != nil && !bytes.Equal(got, wantBody)) {
			t.Fatalf("%s: status %d, body %s; want %d, %s", stage, status, got, wantStatus, wantBody)
		}
	}
	// delta asserts what one request did to the cache counters.
	last := cacheCounters(t, e.srv)
	delta := func(stage string, hits, misses, aliasHits, aliasMisses uint64) {
		t.Helper()
		now := cacheCounters(t, e.srv)
		if now.hits-last.hits != hits || now.misses-last.misses != misses ||
			now.aliasHits-last.aliasHits != aliasHits || now.aliasMisses-last.aliasMisses != aliasMisses {
			t.Fatalf("%s: hits +%d, misses +%d, alias_hits +%d, alias_misses +%d; want +%d +%d +%d +%d", stage,
				now.hits-last.hits, now.misses-last.misses, now.aliasHits-last.aliasHits, now.aliasMisses-last.aliasMisses,
				hits, misses, aliasHits, aliasMisses)
		}
		last = now
	}

	want := topkOf(e.mirror)
	post("first sight", PathTopK, body, http.StatusOK, want)
	delta("first sight", 0, 1, 0, 1)
	post("repeat", PathTopK, body, http.StatusOK, want)
	delta("repeat", 1, 0, 1, 0)

	post("respelled, first sight", PathTopK, spaced.Bytes(), http.StatusOK, want)
	delta("respelled, first sight", 1, 0, 0, 1)
	post("respelled, repeat", PathTopK, spaced.Bytes(), http.StatusOK, want)
	delta("respelled, repeat", 1, 0, 1, 0)

	// An insert between two identical requests: the alias still hits,
	// the answer's version moved, the miss decodes and recomputes.
	if status, out, _ := e.post(PathInsert, insertBody(t, feed[0], "")); status != http.StatusOK {
		t.Fatalf("insert: status %d: %s", status, out)
	}
	if err := e.mirror.Insert(feed[0]); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*trajcover.Trajectory{}, base...), feed[0])
	fresh, err := trajcover.NewIndex(all, liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	want = topkOf(fresh)
	if !bytes.Equal(want, topkOf(e.mirror)) {
		t.Fatal("fixture: mirror and fresh build disagree")
	}
	last = cacheCounters(t, e.srv)
	post("after insert", PathTopK, body, http.StatusOK, want)
	delta("after insert", 0, 1, 1, 0)
	post("after insert, repeat", PathTopK, body, http.StatusOK, want)
	delta("after insert, repeat", 1, 0, 1, 0)

	// Invalid bodies: 400 twice, an alias miss each time, no bytes held.
	held := cacheCounters(t, e.srv).bytes
	for _, bad := range []string{
		`{"facilities":[{"id":1,"stops":[[1]]}],"k":1,"psi":10}`,
		`{"facilities":[{"id":1,"stops":[[1,2]]}],"k":1,"psi":10,"tenant":"../evil"}`,
		`{"facilities":`,
	} {
		for i := 0; i < 2; i++ {
			post("invalid body", PathTopK, []byte(bad), http.StatusBadRequest, nil)
			delta("invalid body", 0, 0, 0, 1)
		}
	}
	if now := cacheCounters(t, e.srv).bytes; now != held {
		t.Fatalf("invalid bodies changed cache bytes %d -> %d", held, now)
	}

	// k = 0 is a fine /v1/servicevalues body and never a /v1/topk one,
	// aliased or not.
	noK := mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 40})
	vs, err := e.mirror.ServiceValuesCtx(context.Background(), facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		post("k=0 servicevalues", PathServiceValues, noK, http.StatusOK, MarshalValuesResponse(vs))
		post("k=0 topk", PathTopK, noK, http.StatusBadRequest, nil)
	}
}

// TestAliasEviction fills a small cache past its budget with aliases and
// answers: whatever the LRU drops, every request still gets the right
// answer — a lost alias costs a decode, a lost answer a recomputation.
func TestAliasEviction(t *testing.T) {
	e := newEnv(t, testUsers(100, 41), Config{Workers: 2, QueueDepth: 16, ResultCacheBytes: 16 * 1024})
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	type probe struct{ body, want []byte }
	var probes []probe
	for i := 0; i < 120; i++ {
		facs := testFacilities(2, 3, int64(100+i))
		vs, err := e.mirror.ServiceValuesCtx(context.Background(), facs, q, 1)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, probe{mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: 40}), MarshalValuesResponse(vs)})
	}
	for pass := 0; pass < 2; pass++ {
		for i, p := range probes {
			if status, got, _ := e.post(PathServiceValues, p.body); status != http.StatusOK || !bytes.Equal(got, p.want) {
				t.Fatalf("pass %d request %d: status %d, answer %s, want %s", pass, i, status, got, p.want)
			}
		}
	}
	rc := e.srv.Stats().ResultCache
	if rc.Evictions == 0 {
		t.Fatalf("fixture: nothing was evicted (%+v)", rc)
	}
	if rc.Bytes > rc.MaxBytes {
		t.Fatalf("aliases escaped the byte budget: %d > %d", rc.Bytes, rc.MaxBytes)
	}
}

// topKBody is a top-k body of n facilities of 32 stops, k = 8: at n = 128
// the paper's default kMaxRRST request (§VII Table III), the ~130 KB body
// the allocation pins are stated for.
func topKBody(t testing.TB, n int) []byte {
	t.Helper()
	b, err := json.Marshal(QueryRequest{Facilities: FacilitiesJSON(testFacilities(n, 32, 51)), K: 8, Psi: 40, Workers: 1, TimeoutMS: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func paperDefaultBody(t testing.TB) []byte { return topKBody(t, 128) }

// TestDecodeQueryRequestAllocs pins the one-pass decode: a constant
// number of allocations — the request, the wire list, the table's three
// columns and the query API's slab and pointers — the same at 16
// facilities as at 128, not the one per facility a decoder per stop array
// makes, or the reflection path's eight.
func TestDecodeQueryRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	var counts []float64
	for _, n := range []int{16, 128} {
		body := topKBody(t, n)
		allocs := testing.AllocsPerRun(20, func() {
			if _, _, _, err := DecodeQueryRequest(body, true); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("DecodeQueryRequest(%d bytes, %d x 32): %.0f allocs", len(body), n, allocs)
		if allocs > 8 {
			t.Fatalf("DecodeQueryRequest, %d facilities: %.0f allocs, want <= 8", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("DecodeQueryRequest: %.0f allocs at 16 facilities, %.0f at 128: something is allocated per facility", counts[0], counts[1])
	}
}

// replayBody is a request body the alloc pin can rewind without
// allocating.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is the least ResponseWriter a handler can run against.
type discardWriter struct {
	header http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(s int)   { w.status = s }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// topKServer returns a server over a small index, result cache on or
// off, and a function that drives one /v1/topk of body straight into its
// handler — net/http's own cost is not in what it allocates.
func topKServer(t *testing.T, cacheBytes int64, body []byte) (*Server, func()) {
	t.Helper()
	idx, err := trajcover.NewIndex(testUsers(200, 52), liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	srv := New(idx, Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 30 * time.Second, ResultCacheBytes: cacheBytes})
	t.Cleanup(srv.Close)
	rb := &replayBody{}
	req, err := http.NewRequest(http.MethodPost, PathTopK, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Body, req.ContentLength = rb, int64(len(body))
	w := &discardWriter{header: http.Header{}}
	return srv, func() {
		rb.Reset(body)
		w.status, w.n = 0, 0
		srv.Handler().ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n == 0 {
			t.Fatalf("status %d, %d body bytes", w.status, w.n)
		}
	}
}

// TestTopKMissAllocs pins the miss path at the handler: a cache-off
// /v1/topk — body, decode, admission, the exact pass over two shards, the
// sort, the encode — allocates the same at 16 facilities as at 128,
// because nothing on it is allocated per facility, and stays under a
// constant bound. The body, the decoded request and the answer's bytes
// come from a pooled QueryBuffer, whose deadline context arms with no
// timer, and the work runs on the handler, so what is left is the summed
// values and the ranking. The collector is off while it counts: a collection empties the
// sync.Pools the path draws from, and the larger body's garbage would
// otherwise buy it more refills.
func TestTopKMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var counts []float64
	for _, n := range []int{16, 128} {
		_, serve := topKServer(t, 0, topKBody(t, n))
		allocs := testing.AllocsPerRun(20, serve)
		t.Logf("uncached /v1/topk, %d x 32: %.0f allocs", n, allocs)
		if allocs > 4 {
			t.Fatalf("uncached /v1/topk, %d facilities: %.0f allocs per request, want <= 4", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] {
		t.Fatalf("uncached /v1/topk: %.0f allocs at 16 facilities, %.0f at 128: something is allocated per facility", counts[0], counts[1])
	}
}

// TestTopKHitAllocs pins "hit before decode" at the handler: a repeat of
// a cached paper-default body is answered by the alias and the answer
// lookups alone, with none of the miss path's decode or query work.
func TestTopKHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	body := paperDefaultBody(t)
	srv, serve := topKServer(t, 1<<20, body)
	serve() // computes, caches, aliases
	before := cacheCounters(t, srv)
	const runs = 50
	allocs := testing.AllocsPerRun(runs, serve)
	after := cacheCounters(t, srv)
	// AllocsPerRun calls serve once more than it counts, to warm up.
	if after.hits-before.hits != runs+1 || after.aliasHits-before.aliasHits != runs+1 || after.misses != before.misses || after.aliasMisses != before.aliasMisses {
		t.Fatalf("%d repeats: %+v -> %+v, want every one an alias hit and an answer hit", runs+1, before, after)
	}
	t.Logf("cached /v1/topk, %d-byte body: %.0f allocs", len(body), allocs)
	if allocs > 7 {
		t.Fatalf("cached /v1/topk: %.0f allocs per request, want <= 7", allocs)
	}
}

// BenchmarkDecodeQueryRequest is the miss path's ingest cost on the
// paper-default body (EXPERIMENTS.md records it before and after the
// one-pass decoder).
func BenchmarkDecodeQueryRequest(b *testing.B) {
	body := paperDefaultBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := DecodeQueryRequest(body, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAliasKey is what the probe adds to every cacheable request,
// hit or miss: one SHA-256 over the body.
func BenchmarkAliasKey(b *testing.B) {
	body := paperDefaultBody(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aliasKey(PathTopK, "", body)
	}
}
