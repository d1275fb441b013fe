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
	"strings"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
)

// replyFrame is one frame of an exchange's response.
type replyFrame struct {
	kind    FrameKind
	payload []byte
}

// parseFrames splits a whole exchange response into its frames.
func parseFrames(t *testing.T, raw []byte) []replyFrame {
	t.Helper()
	var out []replyFrame
	for r := bytes.NewReader(raw); ; {
		kind, payload, err := ReadFrame(r, nil, 1<<30)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("response is not a frame stream: %v (%d bytes: %.80q)", err, len(raw), raw)
		}
		out = append(out, replyFrame{kind, payload})
	}
}

// floatsOf decodes a bounds or values frame.
func floatsOf(t *testing.T, f replyFrame, kind FrameKind, n int) []float64 {
	t.Helper()
	if f.kind != kind {
		t.Fatalf("frame of kind %d (%q), want %d", f.kind, f.payload, kind)
	}
	vals, err := DecodeFloatsFrame(f.payload, n)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

// testExchange is a streaming exchange client: frames go out one at a
// time on an open request and replies are read as they come.
type testExchange struct {
	t    *testing.T
	pw   *io.PipeWriter
	resp *http.Response
	stop context.CancelFunc
}

// openExchange POSTs first (the query frame, plus anything behind it)
// and returns once the response has started.
func (e *env) openExchange(first []byte) *testExchange {
	e.t.Helper()
	pr, pw := io.Pipe()
	ctx, stop := context.WithCancel(context.Background())
	// The transport does not return from a cancelled round trip while its
	// write loop still waits on the body.
	context.AfterFunc(ctx, func() { pw.CloseWithError(context.Canceled) })
	e.t.Cleanup(stop)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+PathExchange, io.MultiReader(bytes.NewReader(first), pr))
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := e.client.Do(req)
	if err != nil {
		e.t.Fatalf("open exchange: %v", err)
	}
	e.t.Cleanup(func() { resp.Body.Close() })
	return &testExchange{t: e.t, pw: pw, resp: resp, stop: stop}
}

func (x *testExchange) send(frame []byte) {
	x.t.Helper()
	if _, err := x.pw.Write(frame); err != nil {
		x.t.Fatalf("send frame: %v", err)
	}
}

func (x *testExchange) recv() replyFrame {
	x.t.Helper()
	kind, payload, err := ReadFrame(x.resp.Body, nil, 1<<30)
	if err != nil {
		x.t.Fatalf("read reply frame: %v", err)
	}
	return replyFrame{kind, payload}
}

// end closes the request body and expects the response to end too.
func (x *testExchange) end() {
	x.t.Helper()
	x.pw.Close()
	if _, _, err := ReadFrame(x.resp.Body, nil, 1<<30); err != io.EOF {
		x.t.Fatalf("after the request ended: %v, want the response to end", err)
	}
}

func allIndexes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func errorOf(t *testing.T, body []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Fatalf("not an error body: %q (%v)", body, err)
	}
	return er.Error
}

// TestExchangeBounds: the bounds frame is the scatter unit of the
// distributed tier. It must equal the library's UpperBoundsCtx and
// dominate the exact service values (admissibility — the property the
// distributed prune is sound under), and the endpoint's bad-request
// surface must match the JSON endpoints'.
func TestExchangeBounds(t *testing.T) {
	users := testUsers(300, 251)
	e := newEnv(t, users, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(12, 6, 252)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}

	status, raw, _ := e.post(PathExchange, AppendQueryFrame(nil, facs, QueryParams{Query: q, Bounds: true}))
	if status != http.StatusOK {
		t.Fatalf("exchange: %d %s", status, raw)
	}
	frames := parseFrames(t, raw)
	if len(frames) != 1 {
		t.Fatalf("%d reply frames to a query frame alone, want the bounds frame", len(frames))
	}
	bounds := floatsOf(t, frames[0], FrameBounds, len(facs))
	want, err := e.srv.Index().UpperBoundsCtx(context.Background(), facs, q)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.mirror.ServiceValuesCtx(context.Background(), facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range facs {
		if bounds[i] != want[i] {
			t.Fatalf("facility %d: frame bound %v, library %v", facs[i].ID, bounds[i], want[i])
		}
		if bounds[i] < exact[i] {
			t.Fatalf("facility %d: bound %v below exact value %v (inadmissible)", facs[i].ID, bounds[i], exact[i])
		}
	}

	// A stopless facility is the same 400, word for word, as on the JSON
	// path.
	status, raw, _ = e.post(PathExchange, AppendQueryFrame(nil, []*trajcover.Facility{{ID: 1}}, QueryParams{Query: q, Bounds: true}))
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
}

// TestExchangeRoundsPinned: every frame of an exchange is answered from
// the epoch capture taken when it opened — writes that land between
// frames show in the next exchange, never in this one — and a values
// frame equals the library's ServiceValues over the round's facilities,
// bit for bit, in the round's order.
func TestExchangeRoundsPinned(t *testing.T) {
	base := testUsers(300, 261)
	e := newEnv(t, base, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(16, 6, 262)
	q := trajcover.Query{Scenario: trajcover.PointCount, Psi: 60}
	ctx := context.Background()
	// Writes that move the answers: copies of served users under fresh IDs.
	extra := make([]*trajcover.Trajectory, 40)
	for i := range extra {
		u, err := trajcover.NewTrajectory(trajcover.ID(10_000+i), base[i].Points)
		if err != nil {
			t.Fatal(err)
		}
		extra[i] = u
	}
	write := func(from, to int) {
		t.Helper()
		for _, u := range extra[from:to] {
			if err := e.srv.Index().Insert(u); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := e.srv.Index().Delete(base[from].ID); err != nil {
			t.Fatal(err)
		}
	}
	pick := func(idx []int) []*trajcover.Facility {
		out := make([]*trajcover.Facility, len(idx))
		for j, i := range idx {
			out[j] = facs[i]
		}
		return out
	}

	x := e.openExchange(AppendQueryFrame(nil, facs, QueryParams{Query: q, Workers: 2, Bounds: true}))
	if x.resp.StatusCode != http.StatusOK {
		t.Fatalf("exchange: %s", x.resp.Status)
	}
	wantBounds, err := e.mirror.UpperBoundsCtx(ctx, facs, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range floatsOf(t, x.recv(), FrameBounds, len(facs)) {
		if b != wantBounds[i] {
			t.Fatalf("bound %d = %v, the opening epoch's is %v", i, b, wantBounds[i])
		}
	}
	moved := false
	for r, round := range [][]int{{3, 0, 15}, {7}, {1, 2, 4, 5, 6, 8, 9, 10}, {}, {15, 14, 13, 12, 11}} {
		write(r*8, r*8+8)
		x.send(AppendRoundFrame(nil, round))
		got := floatsOf(t, x.recv(), FrameValues, len(round))
		want, err := e.mirror.ServiceValuesCtx(ctx, pick(round), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		now, err := e.srv.Index().ServiceValuesCtx(ctx, pick(round), q, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range round {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("round %d facility %d = %v, the opening epoch's is %v (the index now says %v)", r, round[j], got[j], want[j], now[j])
			}
			moved = moved || now[j] != want[j]
		}
	}
	x.end()
	if !moved {
		t.Fatal("the writes moved no value: the pin was never exercised")
	}

	// The next exchange — here the one-POST shape /v1/servicevalues takes
	// through a frontend: no bounds, one round, both frames up front —
	// sees every write.
	body := AppendRoundFrame(AppendQueryFrame(nil, facs, QueryParams{Query: q}), allIndexes(len(facs)))
	status, raw, _ := e.post(PathExchange, body)
	if status != http.StatusOK {
		t.Fatalf("one-round exchange: %d %s", status, raw)
	}
	frames := parseFrames(t, raw)
	if len(frames) != 1 {
		t.Fatalf("%d reply frames, want one values frame", len(frames))
	}
	now, err := e.srv.Index().ServiceValuesCtx(ctx, facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range floatsOf(t, frames[0], FrameValues, len(facs)) {
		if math.Float64bits(v) != math.Float64bits(now[i]) {
			t.Fatalf("value %d = %v after the writes, index says %v", i, v, now[i])
		}
	}
	if got := e.srv.Stats().Tenants["default"].Gate.Inflight; got != 0 {
		t.Fatalf("%d gate slots held after every exchange ended", got)
	}
}

// TestExchangeHostileFrames: bytes that are not a well-formed exchange
// are a 400 (413 past MaxBodyBytes) while there is still an HTTP answer
// to give and an error frame after the first reply — never a panic,
// never an aliased out-of-range slice — and where the JSON path has the
// same check, the message is the same.
func TestExchangeHostileFrames(t *testing.T) {
	e := newEnv(t, testUsers(100, 271), Config{Workers: 1, QueueDepth: 4, MaxBodyBytes: 1 << 20})
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	facs := testFacilities(3, 4, 272)
	good := AppendQueryFrame(nil, facs, QueryParams{Query: q, Bounds: true})
	le := binary.LittleEndian
	// edit returns a copy of the good query frame with its payload patched.
	edit := func(patch func(payload []byte)) []byte {
		b := append([]byte(nil), good...)
		patch(b[FrameHeaderLen:])
		return b
	}
	longRoute := &trajcover.Facility{ID: 7, Stops: make([]trajcover.Point, MaxStops+1)}
	nan := math.Float64bits(math.NaN())

	before := []struct {
		name, wantErr string
		body          []byte
		status        int
	}{
		{"empty body", "reading the query frame", nil, 400},
		{"half a header", "reading the query frame", good[:5], 400},
		{"unknown kind", "bad frame header", append([]byte{0, 0, 0, 0, 9, 0, 0, 0}, good...), 400},
		{"reserved header bytes", "bad frame header", edit(func([]byte) {})[:0], 400}, // body set below
		{"round frame first", "want the query frame", AppendRoundFrame(nil, []int{0}), 400},
		{"truncated payload", "reading the query frame", good[:len(good)-9], 400},
		{"declares 2 MiB", "request body too large", append(le.AppendUint32(nil, 2<<20), byte(FrameQuery), 0, 0, 0), 413},
		{"shorter than its head", "shorter than its 32-byte head", append(appendFrameHeader(nil, FrameQuery, 16), make([]byte, 16)...), 400},
		{"count past the payload", "facilities with", edit(func(p []byte) { le.PutUint32(p[20:], 4) }), 400},
		{"stop total past the payload", "facilities with", edit(func(p []byte) { le.PutUint32(p[24:], 1<<30) }), 400},
		{"too many facilities", fmt.Sprintf("too many facilities: %d > %d", uint32(math.MaxUint32), MaxFacilities), edit(func(p []byte) { le.PutUint32(p[20:], math.MaxUint32) }), 400},
		{"offsets start past 0", "stop offsets run", edit(func(p []byte) { le.PutUint32(p[32+4*3:], 1) }), 400},
		{"offsets end short", "stop offsets run", edit(func(p []byte) { le.PutUint32(p[32+4*3+4*3:], 11) }), 400},
		{"offsets decrease", "stop offsets decrease", edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 9); le.PutUint32(p[32+4*3+8:], 8) }), 400},
		{"offset past the column", "has too many stops: 2147483648", edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 1<<31) }), 400},
		{"empty facility", fmt.Sprintf("facility %d has no stops", facs[0].ID), edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 0) }), 400},
		{"NaN coordinate", fmt.Sprintf("facility %d stop 1 is not finite", facs[1].ID), edit(func(p []byte) { le.PutUint64(p[32+8*4+16*5:], nan) }), 400},
		{"padding set", "reserved bits", edit(func(p []byte) { le.PutUint32(p[32+8*4-4:], 1) }), 400},
		{"reserved head bits", "reserved bits", edit(func(p []byte) { p[18] = 1 }), 400},
		{"unknown flag", "reserved bits", edit(func(p []byte) { p[17] = 3 }), 400},
		{"unknown scenario", "unknown scenario code 3", edit(func(p []byte) { p[16] = 3 }), 400},
		{"negative psi", "psi must be finite and >= 0, got -1", edit(func(p []byte) { le.PutUint64(p, math.Float64bits(-1)) }), 400},
		{"too many stops", fmt.Sprintf("facility 7 has too many stops: %d > %d", MaxStops+1, MaxStops), AppendQueryFrame(nil, []*trajcover.Facility{longRoute}, QueryParams{Query: q}), 400},
	}
	before[3].body = append([]byte(nil), good...)
	before[3].body[6] = 1
	for _, tc := range before {
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
		{AppendQueryFrame(nil, []*trajcover.Facility{longRoute}, QueryParams{Query: q}),
			[]byte(`{"facilities":[{"id":7,"stops":[` + strings.TrimSuffix(strings.Repeat("[0,0],", MaxStops+1), ",") + `]}],"psi":40}`)},
		{edit(func(p []byte) { le.PutUint64(p, math.Float64bits(-1)) }), mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: -1})},
	} {
		_, raw, _ := e.post(PathExchange, pair.frame)
		_, jsonRaw, _ := e.post(PathServiceValues, pair.jsonBody)
		if !bytes.Equal(raw, jsonRaw) {
			t.Errorf("exchange says %s where the JSON path says %s", raw, jsonRaw)
		}
	}

	// After the bounds frame an error travels in band.
	after := []struct {
		name, wantErr string
		frame         []byte
		status        int
	}{
		{"index out of range", "round names facility 3 of 3", AppendRoundFrame(nil, []int{0, 3}), 400},
		{"more indexes than facilities", "round frame of 16 bytes over 3 facilities", AppendRoundFrame(nil, []int{0, 1, 2, 0}), 400},
		{"ragged round", "round frame of 5 bytes", append(appendFrameHeader(nil, FrameRound, 5), 0, 0, 0, 0, 0), 400},
		{"second query frame", "where a round was due", good, 400},
		{"a reply kind", "where a round was due", AppendFloatsFrame(nil, FrameValues, []float64{1}), 400},
		{"oversized round", "request body too large", append(le.AppendUint32(nil, 2<<20), byte(FrameRound), 0, 0, 0), 413},
		{"bad header", "bad frame header", []byte{4, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 4}, 400},
	}
	for _, tc := range after {
		status, raw, _ := e.post(PathExchange, append(append([]byte(nil), good...), tc.frame...))
		if status != http.StatusOK {
			t.Errorf("%s: status %d (%.120s), want 200 and an error frame", tc.name, status, raw)
			continue
		}
		frames := parseFrames(t, raw)
		if len(frames) != 2 || frames[0].kind != FrameBounds || frames[1].kind != FrameError {
			t.Errorf("%s: reply frames %+v, want bounds then error", tc.name, frames)
			continue
		}
		st, retry, body, err := DecodeErrorFrame(frames[1].payload)
		if err != nil || st != tc.status || retry {
			t.Errorf("%s: error frame (%d, retry %v, %v), want status %d", tc.name, st, retry, err, tc.status)
		}
		if msg := errorOf(t, body); !strings.Contains(msg, tc.wantErr) {
			t.Errorf("%s: error %q, want it to say %q", tc.name, msg, tc.wantErr)
		}
	}
	// A body that ends inside a later frame just ends the exchange.
	status, raw, _ := e.post(PathExchange, append(append([]byte(nil), good...), AppendRoundFrame(nil, []int{0, 1})[:10]...))
	if frames := parseFrames(t, raw); status != http.StatusOK || len(frames) != 1 || frames[0].kind != FrameBounds {
		t.Errorf("body cut inside a round frame: %d, frames %+v", status, frames)
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
	frame := AppendQueryFrame(nil, facs, QueryParams{Query: trajcover.Query{Scenario: trajcover.Length, Psi: 12.5}, Workers: 3, TimeoutMS: 1500, Bounds: true})
	for shift := 0; shift < 8; shift++ {
		buf := make([]byte, shift+len(frame))
		payload := buf[shift : shift+copy(buf[shift:], frame[FrameHeaderLen:])]
		var qf QueryFrame
		if err := qf.Decode(payload); err != nil {
			t.Fatalf("shift %d: %v", shift, err)
		}
		if qf.Query.Scenario != trajcover.Length || qf.Query.Psi != 12.5 || qf.Workers != 3 || qf.TimeoutMS != 1500 || !qf.Bounds {
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

// TestExchangeInBandErrors: the pool still bounds backend CPU under an
// open exchange. A round that finds the queue full is an error frame
// carrying the 429 and the retry hint; one whose deadline runs out —
// queued behind a busy pool, or because the frontend went quiet — the
// 504; each ends the exchange and frees the tenant's gate slot.
func TestExchangeInBandErrors(t *testing.T) {
	e := newEnv(t, testUsers(200, 291), Config{Workers: 1, QueueDepth: 1, DefaultTimeout: 10 * time.Second})
	facs := testFacilities(6, 4, 292)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	open := func(timeoutMS int64) *testExchange {
		t.Helper()
		// An exchange whose deadline ran out leaves a connection the server
		// is about to close, and the client may be handed it again before
		// it has: every exchange here dials its own.
		tr := &http.Transport{}
		t.Cleanup(tr.CloseIdleConnections)
		e.client = &http.Client{Transport: tr}
		x := e.openExchange(AppendQueryFrame(nil, facs, QueryParams{Query: q, TimeoutMS: timeoutMS, Bounds: true}))
		if x.resp.StatusCode != http.StatusOK {
			t.Fatalf("exchange: %s", x.resp.Status)
		}
		floatsOf(t, x.recv(), FrameBounds, len(facs))
		return x
	}
	wantError := func(x *testExchange, status int, retry bool, says string) {
		t.Helper()
		f := x.recv()
		if f.kind != FrameError {
			t.Fatalf("frame of kind %d, want an error frame", f.kind)
		}
		st, ra, body, err := DecodeErrorFrame(f.payload)
		if err != nil || st != status || ra != retry || !strings.Contains(errorOf(t, body), says) {
			t.Fatalf("error frame (%d, retry %v, %s, %v), want %d, retry %v, %q", st, ra, body, err, status, retry, says)
		}
	}
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

	// Queue full mid-exchange.
	x := open(0)
	release := blockWorkers(t, e.srv, 1)
	fillQueue(t, e.srv, 1)
	x.send(AppendRoundFrame(nil, []int{0, 1}))
	wantError(x, http.StatusTooManyRequests, true, "worker queue full")
	if got := e.srv.Stats().Endpoints[PathExchange].Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	// The backend reads the request body to its end before it lets go, and
	// a frontend ends it on hearing an error.
	x.end()
	release()
	gateFree()

	// Deadline while queued behind a busy pool.
	x = open(150)
	release = blockWorkers(t, e.srv, 1)
	x.send(AppendRoundFrame(nil, []int{2}))
	wantError(x, http.StatusGatewayTimeout, false, "deadline")
	// The frontend has heard; the frame buffers the queued task was given
	// stay out of the pool until a worker has dropped it.
	release()
	x.end()
	gateFree()

	// Deadline while the frontend says nothing.
	x = open(100)
	wantError(x, http.StatusGatewayTimeout, false, "deadline")
	x.stop() // the read deadline has passed: the connection is done for
	gateFree()
	if got := e.srv.Stats().Endpoints[PathExchange].DeadlineExceeded; got != 2 {
		t.Fatalf("deadline counter = %d, want 2", got)
	}

	// Before the first reply frame the same rejections are plain HTTP.
	release = blockWorkers(t, e.srv, 1)
	fillQueue(t, e.srv, 1)
	status, raw, hdr := e.post(PathExchange, AppendQueryFrame(nil, facs, QueryParams{Query: q, Bounds: true}))
	if status != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" || !strings.Contains(errorOf(t, raw), "worker queue full") {
		t.Fatalf("saturated open: %d %s (Retry-After %q), want a plain 429", status, raw, hdr.Get("Retry-After"))
	}
	release()
	gateFree()
}

// TestExchangeAllocs pins the backend half of one paper-default exchange
// — 128 facilities of 32 stops, a bounds frame and six rounds, on two
// shards — driven straight into the handler, so net/http's own cost is
// not in the count: what is left is the pool tasks and the per-shard
// batches. The frames are read into pooled storage and the facilities
// alias it, so the 67 KB query frame costs no allocation at all.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := newEnv(t, testUsers(2000, 301), Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(128, 32, 302)
	body := AppendQueryFrame(nil, facs, QueryParams{Query: trajcover.Query{Scenario: trajcover.Binary, Psi: 40}, Bounds: true})
	sent := 0
	for _, size := range []int{4, 8, 16, 32, 64, 4} { // k = 4: the schedule's six rounds over 128
		body = AppendRoundFrame(body, allIndexes(sent + size)[sent:])
		sent += size
	}
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
	if want := 7*FrameHeaderLen + 8*(128+sent); w.status != http.StatusOK || w.n != want {
		t.Fatalf("exchange answered %d with %d bytes, want 200 with %d (seven reply frames)", w.status, w.n, want)
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("backend half of a 7-frame, 128-facility exchange: %.0f allocs", allocs)
	if allocs > 100 {
		t.Fatalf("exchange handler allocates %.0f/op, want <= 100", allocs)
	}
}

// FuzzExchangeFrames throws arbitrary bytes at the exchange's decoders as
// a backend meets them: a stream of frames, the first decoded as the
// query frame — at a fuzzed alignment, so the aliasing and the copying
// paths both run — and the rest as rounds and replies. Whatever the
// bytes, the result is an error or a fully validated value, never a
// panic; and an accepted query frame decodes to exactly the facilities
// (IDs, stop bits, MBR, canonical hash) that DecodeQueryRequest produces
// from the equivalent JSON body.
func FuzzExchangeFrames(f *testing.F) {
	q := trajcover.Query{Scenario: trajcover.PointCount, Psi: 300}
	facs := testFacilities(3, 4, 311)
	good := AppendQueryFrame(nil, facs, QueryParams{Query: q, Workers: 2, TimeoutMS: 250, Bounds: true})
	f.Add(byte(0), good)
	f.Add(byte(3), AppendRoundFrame(append([]byte(nil), good...), []int{2, 0}))
	f.Add(byte(0), AppendRoundFrame(AppendQueryFrame(nil, nil, QueryParams{}), nil))
	f.Add(byte(1), AppendFloatsFrame(AppendErrorFrame(nil, 429, true, []byte(`{"error":"worker queue full"}`)), FrameBounds, []float64{1, 2.5}))
	f.Add(byte(7), good[:len(good)-3])
	f.Fuzz(func(t *testing.T, shift byte, data []byte) {
		r := bytes.NewReader(data)
		var qf QueryFrame
		n := -1 // facilities of the exchange, once a query frame has decoded
		for {
			kind, payload, err := ReadFrame(r, nil, 1<<20)
			if err != nil {
				var tooBig *http.MaxBytesError
				if err != io.EOF && err != io.ErrUnexpectedEOF && !errors.As(err, &tooBig) {
					requireBadRequest(t, err)
				}
				return
			}
			if len(payload) > 1<<20 {
				t.Fatalf("ReadFrame returned %d bytes past its limit", len(payload))
			}
			switch kind {
			case FrameQuery:
				buf := make([]byte, int(shift%8)+len(payload))
				moved := buf[int(shift%8):]
				copy(moved, payload)
				if err := qf.Decode(moved); err != nil {
					requireBadRequest(t, err)
					if len(qf.Facilities) != 0 {
						t.Fatalf("a rejected frame left %d facilities behind", len(qf.Facilities))
					}
					continue
				}
				n = len(qf.Facilities)
				requireFrameMatchesJSON(t, &qf)
			case FrameRound:
				round, err := DecodeRoundFrame(payload, max(n, 0), nil)
				if err != nil {
					requireBadRequest(t, err)
					continue
				}
				for _, i := range round {
					if i < 0 || i >= n {
						t.Fatalf("accepted round index %d of %d facilities", i, n)
					}
				}
			case FrameBounds, FrameValues:
				if vals, err := DecodeFloatsFrame(payload, len(payload)/8); err != nil {
					requireBadRequest(t, err)
				} else if len(vals) != len(payload)/8 {
					t.Fatalf("%d numbers from %d bytes", len(vals), len(payload))
				}
			case FrameError:
				status, _, _, err := DecodeErrorFrame(payload)
				if err != nil {
					requireBadRequest(t, err)
				} else if status < 400 || status > 599 {
					t.Fatalf("accepted error status %d", status)
				}
			default:
				t.Fatalf("ReadFrame returned kind %d", kind)
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
	jreq, jfacs, jq, err := DecodeQueryRequest(body, false)
	if err != nil {
		t.Fatalf("the frame decoder accepted what the JSON decoder rejects: %v", err)
	}
	if jq != qf.Query || jreq.Workers != qf.Workers || jreq.TimeoutMS != qf.TimeoutMS {
		t.Fatalf("query %+v, JSON path %+v workers %d timeout %d", qf.QueryParams, jq, jreq.Workers, jreq.TimeoutMS)
	}
	requireSameFacilities(t, qf.Facilities, jfacs)
	if got, want := CanonicalQueryHash(PathServiceValues, &req, 0, qf.Query), CanonicalQueryHash(PathServiceValues, jreq, 0, jq); got != want {
		t.Fatalf("canonical hash %x, JSON path %x", got, want)
	}
}
