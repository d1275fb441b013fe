package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// tableOf lays facs out as the facility table a query frame carries.
func tableOf(facs []*trajcover.Facility) trajectory.FacilityTable {
	ids := make([]trajectory.ID, len(facs))
	off := make([]uint32, 1, len(facs)+1)
	var stops []trajcover.Point
	for i, f := range facs {
		ids[i] = f.ID
		stops = append(stops, f.Stops...)
		off = append(off, uint32(len(stops)))
	}
	t, err := trajectory.NewFacilityTable(ids, off, stops)
	if err != nil {
		panic(err)
	}
	return t
}

// valuesOf decodes an exchange's 200 body: one values frame of n numbers.
func valuesOf(t *testing.T, raw []byte, n int) []float64 {
	t.Helper()
	vals, err := DecodeFloatsFrame(bytes.NewReader(raw), n)
	if err != nil {
		t.Fatalf("reply is not a values frame of %d numbers: %v (%d bytes: %.80q)", n, err, len(raw), raw)
	}
	return vals
}

func errorOf(t *testing.T, body []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("not an error body: %q (%v)", body, err)
	}
	return er.Error
}

// TestExchangeValues: the values frame is the scatter unit of the
// distributed tier. It must equal the library's ServiceValues over the
// frame's facilities bit for bit, fractional scenarios included, from the
// index as it stands when the request arrives — writes show in the next
// exchange — and the endpoint's bad-request surface must match the JSON
// endpoints'.
func TestExchangeValues(t *testing.T) {
	base := testUsers(300, 251)
	e := newEnv(t, base, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(16, 6, 252)
	q := trajcover.Query{Scenario: trajcover.PointCount, Psi: 60}
	frame := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q, Workers: 2})
	ask := func() []float64 {
		t.Helper()
		status, raw, hdr := e.post(PathExchange, frame)
		if status != http.StatusOK || hdr.Get("Content-Type") != "application/octet-stream" {
			t.Fatalf("exchange: %d (%s) %.120s", status, hdr.Get("Content-Type"), raw)
		}
		return valuesOf(t, raw, len(facs))
	}
	same := func(got, want []float64) bool {
		return slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	before, err := e.mirror.ServiceValuesCtx(context.Background(), facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ask(); !same(got, before) {
		t.Fatalf("values frame %v, library %v", got, before)
	}
	// Writes that move the answers: copies of served users under fresh IDs.
	for i, u := range base[:40] {
		c, err := trajcover.NewTrajectory(trajcover.ID(10_000+i), u.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.srv.Index().Insert(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.srv.Index().Delete(base[41].ID); err != nil {
		t.Fatal(err)
	}
	now, err := e.srv.Index().ServiceValuesCtx(context.Background(), facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if same(now, before) {
		t.Fatal("the writes moved no value")
	}
	if got := ask(); !same(got, now) {
		t.Fatalf("values frame %v after the writes, index says %v", got, now)
	}

	// A stopless facility is the same 400, word for word, as on the JSON
	// path.
	status, raw, _ := e.post(PathExchange, AppendQueryFrame(nil, tableOf([]*trajcover.Facility{{ID: 1}}), QueryParams{Query: q}))
	_, jsonRaw, _ := e.post(PathServiceValues, []byte(`{"facilities":[{"id":1,"stops":[]}],"psi":40}`))
	if status != http.StatusBadRequest || !bytes.Equal(raw, jsonRaw) {
		t.Fatalf("stopless facility: %d %s, want 400 %s", status, raw, jsonRaw)
	}
	resp, err := e.client.Get(e.ts.URL + PathExchange)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET exchange: %d", resp.StatusCode)
	}
	if got := e.srv.Stats().Tenants["default"].Gate.Inflight; got != 0 {
		t.Fatalf("%d gate slots held after every exchange ended", got)
	}
}

// TestExchangeHostileFrames: bytes that are not one well-formed query
// frame are a 400 (413 past MaxBodyBytes) — never a panic, never an
// aliased out-of-range slice — and where the JSON path has the same
// check, the message is the same.
func TestExchangeHostileFrames(t *testing.T) {
	e := newEnv(t, testUsers(100, 271), Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 1 << 20})
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	facs := testFacilities(3, 4, 272)
	good := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q})
	le := binary.LittleEndian
	// edit returns a copy of the good query frame with its payload patched.
	edit := func(patch func(payload []byte)) []byte {
		b := append([]byte(nil), good...)
		patch(b[FrameHeaderLen:])
		return b
	}
	longRoute := &trajcover.Facility{ID: 7, Stops: make([]trajcover.Point, MaxStops+1)}
	nan := math.Float64bits(math.NaN())

	cases := []struct {
		name, wantErr string
		body          []byte
		status        int
	}{
		{"empty body", "reading the query frame", nil, 400},
		{"half a header", "reading the query frame", good[:5], 400},
		{"unknown kind", "bad frame header", append([]byte{0, 0, 0, 0, 9, 0, 0, 0}, good...), 400},
		{"reserved header bytes", "bad frame header", edit(func([]byte) {})[:0], 400}, // body set below
		{"a reply kind", "want the query frame", AppendFloatsFrame(nil, []float64{1}), 400},
		{"truncated payload", "reading the query frame", good[:len(good)-9], 400},
		{"declares 2 MiB", "request body too large", append(le.AppendUint32(nil, 2<<20), byte(FrameQuery), 0, 0, 0), 413},
		{"shorter than its head", "shorter than its 32-byte head", append(appendFrameHeader(nil, FrameQuery, 16), make([]byte, 16)...), 400},
		{"count past the payload", "facilities with", edit(func(p []byte) { le.PutUint32(p[20:], 4) }), 400},
		{"stop total past the payload", "facilities with", edit(func(p []byte) { le.PutUint32(p[24:], 1<<30) }), 400},
		{"too many facilities", fmt.Sprintf("too many facilities: %d > %d", uint32(math.MaxUint32), MaxFacilities), edit(func(p []byte) { le.PutUint32(p[20:], math.MaxUint32) }), 400},
		{"offsets start past 0", "stop offsets run", edit(func(p []byte) { le.PutUint32(p[32+4*3:], 1) }), 400},
		{"offsets end short", "stop offsets run", edit(func(p []byte) { le.PutUint32(p[32+4*3+4*3:], 11) }), 400},
		{"offsets decrease", "stop offsets decrease", edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 9); le.PutUint32(p[32+4*3+8:], 8) }), 400},
		{"offset past the column", fmt.Sprintf("stop offsets decrease at facility %d", facs[1].ID), edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 1<<31) }), 400},
		{"empty facility", fmt.Sprintf("facility %d has no stops", facs[0].ID), edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 0) }), 400},
		{"NaN coordinate", fmt.Sprintf("facility %d stop 1 is not finite", facs[1].ID), edit(func(p []byte) { le.PutUint64(p[32+8*4+16*5:], nan) }), 400},
		{"padding set", "reserved bits", edit(func(p []byte) { le.PutUint32(p[32+8*4-4:], 1) }), 400},
		{"reserved head bits", "reserved bits", edit(func(p []byte) { p[18] = 1 }), 400},
		{"a flag", "reserved bits", edit(func(p []byte) { p[17] = 1 }), 400},
		{"second query frame", "bytes after the query frame", append(append([]byte(nil), good...), good...), 400},
		{"a frame behind the query", "bytes after the query frame", AppendFloatsFrame(append([]byte(nil), good...), []float64{1}), 400},
		{"one stray byte", "bytes after the query frame", append(append([]byte(nil), good...), 0), 400},
		{"unknown scenario", "unknown scenario code 3", edit(func(p []byte) { p[16] = 3 }), 400},
		{"negative psi", "psi must be finite and >= 0, got -1", edit(func(p []byte) { le.PutUint64(p, math.Float64bits(-1)) }), 400},
		{"too many stops", fmt.Sprintf("facility 7 has too many stops: %d > %d", MaxStops+1, MaxStops), AppendQueryFrame(nil, tableOf([]*trajcover.Facility{longRoute}), QueryParams{Query: q}), 400},
	}
	cases[3].body = append([]byte(nil), good...)
	cases[3].body[6] = 1
	for _, tc := range cases {
		status, raw, _ := e.post(PathExchange, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d (%.120s), want %d", tc.name, status, raw, tc.status)
			continue
		}
		if msg := errorOf(t, raw); !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%s: error %q, want it to say %q", tc.name, msg, tc.wantErr)
		}
	}
	// Where the JSON path has the check, the words are its words.
	for _, pair := range []struct{ frame, jsonBody []byte }{
		{AppendQueryFrame(nil, tableOf([]*trajcover.Facility{longRoute}), QueryParams{Query: q}),
			[]byte(`{"facilities":[{"id":7,"stops":[` + strings.TrimSuffix(strings.Repeat("[0,0],", MaxStops+1), ",") + `]}],"psi":40}`)},
		{edit(func(p []byte) { le.PutUint64(p, math.Float64bits(-1)) }), mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: -1})},
	} {
		_, raw, _ := e.post(PathExchange, pair.frame)
		_, jsonRaw, _ := e.post(PathServiceValues, pair.jsonBody)
		if !bytes.Equal(raw, jsonRaw) {
			t.Errorf("exchange says %s where the JSON path says %s", raw, jsonRaw)
		}
	}

	if got := e.srv.Stats().Tenants["default"].Gate.Inflight; got != 0 {
		t.Fatalf("%d gate slots held after every exchange ended", got)
	}
}

// TestQueryFrameMisaligned: a payload that does not sit 8-aligned in
// memory takes mmap's copying fallback and decodes to the same
// facilities as the aliased path.
func TestQueryFrameMisaligned(t *testing.T) {
	facs := testFacilities(9, 5, 281)
	frame := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: trajcover.Query{Scenario: trajcover.Length, Psi: 12.5}, Workers: 3, TimeoutMS: 1500})
	for shift := 0; shift < 8; shift++ {
		buf := make([]byte, shift+len(frame))
		payload := buf[shift : shift+copy(buf[shift:], frame[FrameHeaderLen:])]
		var qf QueryFrame
		if err := qf.Decode(payload); err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if qf.Query.Scenario != trajcover.Length || qf.Query.Psi != 12.5 || qf.Workers != 3 || qf.TimeoutMS != 1500 {
			t.Fatalf("shift %d: parameters %+v", shift, qf.QueryParams)
		}
		requireSameFacilities(t, qf.Facilities, facs)
	}
}

func requireSameFacilities(t *testing.T, got, want []*trajcover.Facility) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d facilities, want %d", len(got), len(want))
	}
	for i, f := range got {
		w := want[i]
		if f.ID != w.ID || f.MBR() != w.MBR() || len(f.Stops) != len(w.Stops) || cap(f.Stops) != len(f.Stops) {
			t.Fatalf("facility %d = %+v, want %+v", i, f, w)
		}
		for j, st := range f.Stops {
			if math.Float64bits(st.X) != math.Float64bits(w.Stops[j].X) || math.Float64bits(st.Y) != math.Float64bits(w.Stops[j].Y) {
				t.Fatalf("facility %d stop %d = %v, want %v", i, j, st, w.Stops[j])
			}
		}
	}
}

// TestExchangeRejections: the slots bound backend CPU under exchanges as
// under any read. One that finds every slot and waiting place taken is a
// plain 429 with the retry hint, one whose deadline runs out while it
// waits for a slot a 504; each is counted on the endpoint and frees the
// tenant's gate slot.
func TestExchangeRejections(t *testing.T) {
	e := newEnv(t, testUsers(200, 291), Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 10 * time.Second})
	facs := testFacilities(6, 4, 292)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	gateFree := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for e.srv.Stats().Tenants["default"].Gate.Inflight != 0 {
			if time.Now().After(deadline) {
				t.Fatal("gate slot still held after the exchange failed")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	release := blockWorkers(t, e.srv, 1)
	fillQueue(t, e.srv, 1)
	status, raw, hdr := e.post(PathExchange, AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q}))
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" || !strings.Contains(errorOf(t, raw), "worker queue full") {
		t.Fatalf("every slot and waiting place taken: %d %s (Retry-After %q), want a plain 429", status, raw, hdr.Get("Retry-After"))
	}
	if got := e.srv.Stats().Endpoints[PathExchange].Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	release()
	gateFree()

	release = blockWorkers(t, e.srv, 1)
	status, raw, _ = e.post(PathExchange, AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q, TimeoutMS: 150}))
	if status != http.StatusGatewayTimeout || !strings.Contains(errorOf(t, raw), "deadline") {
		t.Fatalf("waiting behind a taken slot: %d %s, want 504", status, raw)
	}
	if got := e.srv.Stats().Endpoints[PathExchange].DeadlineExceeded; got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
	// A waiter that timed out gave its gate slot back as it answered.
	gateFree()
	release()
}

// TestExchangeAllocs pins the backend half of one paper-default exchange
// — 128 facilities of 32 stops on two shards — driven straight into the
// handler, so net/http's own cost is not in the count: what is left is
// the deadline's context and the summed values. The frame is read into
// pooled storage that the facilities alias and the reply frame is built
// in, so the 67 KB query frame and its answer cost no allocation at all.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := newEnv(t, testUsers(2000, 301), Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(128, 32, 302)
	body := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: trajcover.Query{Scenario: trajcover.Binary, Psi: 40}})
	rb := &replayBody{}
	req, err := http.NewRequest(http.MethodPost, PathExchange, rb)
	if err != nil {
		t.Fatal(err)
	}
	w := &discardWriter{header: http.Header{}}
	run := func() {
		rb.Reset(body)
		w.status, w.n = 0, 0
		e.srv.handleExchange(w, req)
	}
	run()
	if want := FrameHeaderLen + 8*128; w.status != http.StatusOK || w.n != want {
		t.Fatalf("exchange answered %d with %d bytes, want 200 with %d (one values frame)", w.status, w.n, want)
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("backend half of a 128-facility exchange: %.0f allocs", allocs)
	if allocs > 10 {
		t.Fatalf("exchange handler allocates %.0f/op, want <= 10", allocs)
	}
}

// FuzzExchangeFrames throws arbitrary bytes at the exchange's decoders as
// each side meets them. As a request body (the handler's own reader, then
// the query frame again at a fuzzed alignment, so the aliasing and the
// copying paths both run) the result is an error or a fully validated
// frame that decodes to exactly the facilities (IDs, stop bits, MBR,
// canonical hash) DecodeQueryRequest produces from the equivalent JSON
// body. As a reply (the frontend's reader) they are an answer only when
// they are one values frame of exactly the count asked for and nothing
// else. Never a panic.
func FuzzExchangeFrames(f *testing.F) {
	q := trajcover.Query{Scenario: trajcover.PointCount, Psi: 300}
	facs := testFacilities(3, 4, 311)
	good := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q, Workers: 2, TimeoutMS: 250})
	f.Add(byte(0), good)
	f.Add(byte(3), AppendFloatsFrame(append([]byte(nil), good...), []float64{2, 0}))
	f.Add(byte(0), AppendQueryFrame(nil, tableOf(nil), QueryParams{}))
	f.Add(byte(2), AppendFloatsFrame(nil, []float64{1, 2.5}))
	f.Add(byte(7), good[:len(good)-3])
	f.Add(byte(2), append(AppendFloatsFrame(nil, []float64{1, 2.5}), 0))
	f.Add(byte(1), AppendFloatsFrame(AppendFloatsFrame(nil, []float64{4}), []float64{4}))
	f.Fuzz(func(t *testing.T, shift byte, data []byte) {
		requireWireError := func(err error) {
			t.Helper()
			var tooBig *http.MaxBytesError
			if !errors.As(err, &tooBig) {
				requireBadRequest(t, err)
			}
		}
		var x exchangeState
		if err := x.read(bytes.NewReader(data), 1<<20); err != nil {
			requireWireError(err)
		} else {
			if want := FrameHeaderLen + len(x.query); len(data) != want {
				t.Fatalf("accepted a %d-byte body as one %d-byte frame", len(data), want)
			}
			requireFrameMatchesJSON(t, &x.qf)
		}
		if kind, payload, err := ReadFrame(bytes.NewReader(data), nil, 1<<20); err == nil && kind == FrameQuery {
			moved := make([]byte, int(shift%8)+len(payload))[shift%8:]
			copy(moved, payload)
			var qf QueryFrame
			if err := qf.Decode(moved); err != nil {
				requireBadRequest(t, err)
				if len(qf.Facilities) != 0 {
					t.Fatalf("a rejected frame left %d facilities behind", len(qf.Facilities))
				}
			} else {
				requireFrameMatchesJSON(t, &qf)
			}
		}
		for _, n := range []int{int(shift), (len(data) - FrameHeaderLen) / 8} {
			vals, err := DecodeFloatsFrame(bytes.NewReader(data), max(n, 0))
			switch {
			case err == io.ErrUnexpectedEOF: // cut short
			case err != nil:
				requireWireError(err)
			case len(vals) != n || len(data) != FrameHeaderLen+8*n || FrameKind(data[4]) != FrameValues:
				t.Fatalf("accepted %d bytes of kind %d as a reply of %d values to %d facilities", len(data), data[4], len(vals), n)
			}
		}
	})
}

// requireFrameMatchesJSON is FuzzExchangeFrames' differential half: the
// JSON body that says what an accepted query frame says must be accepted
// too, and decode to the same query and the same facilities.
func requireFrameMatchesJSON(t *testing.T, qf *QueryFrame) {
	t.Helper()
	if qf.Workers < 1 || qf.Workers > MaxRequestWorkers || qf.TimeoutMS < 0 || !finite(qf.Query.Psi) || qf.Query.Psi < 0 || len(qf.Facilities) > MaxFacilities {
		t.Fatalf("accepted parameters %+v with %d facilities", qf.QueryParams, len(qf.Facilities))
	}
	req := QueryRequest{
		Facilities: FacilitiesJSON(qf.Facilities), Scenario: scenarioNames[qf.Query.Scenario],
		Psi: qf.Query.Psi, Workers: qf.Workers, TimeoutMS: qf.TimeoutMS,
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("accepted a frame JSON cannot say: %v", err)
	}
	var buf QueryBuffer
	jreq, jtable, jq, err := buf.Decode(body, false)
	if err != nil {
		t.Fatalf("the frame decoder accepted what the JSON decoder rejects: %v", err)
	}
	jfacs, err := buf.facilities()
	if err != nil {
		t.Fatal(err)
	}
	if jq != qf.Query || jreq.Workers != qf.Workers || jreq.TimeoutMS != qf.TimeoutMS {
		t.Fatalf("query %+v, JSON path %+v workers %d timeout %d", qf.QueryParams, jq, jreq.Workers, jreq.TimeoutMS)
	}
	requireSameFacilities(t, qf.Facilities, jfacs)
	// Both decoders build one table: each writes the same frame.
	if got, want := AppendQueryFrame(nil, qf.Table, qf.QueryParams), AppendQueryFrame(nil, jtable, qf.QueryParams); !bytes.Equal(got, want) {
		t.Fatalf("the frame's table writes %x, the JSON path's %x", got, want)
	}
	if got, want := CanonicalQueryHash(PathServiceValues, &req, 0, qf.Query), CanonicalQueryHash(PathServiceValues, jreq, 0, jq); got != want {
		t.Fatalf("canonical hash %x, JSON path %x", got, want)
	}
}
