package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
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

// exchangeConn is a test's end of an exchange connection: the handshake
// written by hand, then frames out and replies in, raw.
type exchangeConn struct {
	t *testing.T
	net.Conn
	replies uint16 // replies read, so the next one's ordinal is replies+1
}

// upgradeExchange sends the exchange handshake to the server at base and
// returns the connection and the answer's status and body; the
// connection carries frames when the status is 101.
func upgradeExchange(t *testing.T, base string, header string) (net.Conn, int, []byte) {
	t.Helper()
	c, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	req := "POST " + PathExchange + " HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n" + header + "\r\n"
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(c)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("exchange handshake: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if br.Buffered() > 0 {
		t.Fatalf("the handshake's answer is followed by %d bytes", br.Buffered())
	}
	c.SetReadDeadline(time.Time{})
	return c, resp.StatusCode, body
}

const upgradeHeaders = "Connection: Upgrade\r\nUpgrade: " + ExchangeProtocol + "\r\n"

// dialExchange opens an exchange connection to the server at base.
func dialExchange(t *testing.T, base string) *exchangeConn {
	t.Helper()
	c, status, body := upgradeExchange(t, base, upgradeHeaders)
	if status != http.StatusSwitchingProtocols {
		t.Fatalf("exchange handshake: %d %s, want 101", status, body)
	}
	return &exchangeConn{t: t, Conn: c}
}

// ask sends one frame and reads its reply: n values, or an error frame.
func (c *exchangeConn) ask(frame []byte, n int) ([]float64, *ErrorReply) {
	c.t.Helper()
	if _, err := c.Write(frame); err != nil {
		c.t.Fatal(err)
	}
	return c.reply(n)
}

func (c *exchangeConn) reply(n int) ([]float64, *ErrorReply) {
	c.t.Helper()
	c.SetReadDeadline(time.Now().Add(20 * time.Second))
	defer c.SetReadDeadline(time.Time{})
	c.replies++
	vals, _, err := ReadReply(c, nil, n, c.replies)
	var er *ErrorReply
	if errors.As(err, &er) {
		return nil, er
	}
	if err != nil {
		c.t.Fatalf("reply to an exchange of %d facilities: %v", n, err)
	}
	return vals, nil
}

// values asks and requires a values frame.
func (c *exchangeConn) values(frame []byte, n int) []float64 {
	c.t.Helper()
	vals, er := c.ask(frame, n)
	if er != nil {
		c.t.Fatalf("exchange answered %d %s, want values", er.Status, er.Body)
	}
	return vals
}

// requireClosed requires that the server has closed the connection with
// nothing more to say.
func (c *exchangeConn) requireClosed() {
	c.t.Helper()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	b := make([]byte, 64)
	if n, err := c.Read(b); n != 0 || err == nil || isTimeoutErr(err) {
		c.t.Fatalf("connection still open: read %d bytes (%q), %v", n, b[:n], err)
	}
}

func isTimeoutErr(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
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
// index as it stands when the frame arrives — writes show in the next
// exchange on the same connection — and the frame's bad-request surface
// must match the JSON endpoints'.
func TestExchangeValues(t *testing.T) {
	base := testUsers(300, 251)
	e := newEnv(t, base, Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(16, 6, 252)
	q := trajcover.Query{Scenario: trajcover.PointCount, Psi: 60}
	frame := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q, Workers: 2})
	c := dialExchange(t, e.ts.URL)
	same := func(got, want []float64) bool {
		return slices.EqualFunc(got, want, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) })
	}
	before, err := e.mirror.ServiceValuesCtx(context.Background(), facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.values(frame, len(facs)); !same(got, before) {
		t.Fatalf("values frame %v, library %v", got, before)
	}
	// Writes that move the answers: copies of served users under fresh IDs.
	for i, u := range base[:40] {
		cp, err := trajcover.NewTrajectory(trajcover.ID(10_000+i), u.Points)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.srv.Index().Insert(cp); err != nil {
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
	if got := c.values(frame, len(facs)); !same(got, now) {
		t.Fatalf("values frame %v after the writes, index says %v", got, now)
	}
	if got := e.srv.Stats().Endpoints[PathExchange].Requests; got != 2 {
		t.Fatalf("/statsz counts %d exchange requests for two frames on one connection, want 2", got)
	}

	// A stopless facility is the same 400, word for word, as on the JSON
	// path — and a frame that does not decode closes the connection.
	_, er := c.ask(AppendQueryFrame(nil, tableOf([]*trajcover.Facility{{ID: 1}}), QueryParams{Query: q}), 1)
	_, jsonRaw, _ := e.post(PathServiceValues, []byte(`{"facilities":[{"id":1,"stops":[]}],"psi":40}`))
	if er == nil || er.Status != http.StatusBadRequest || er.RetryAfter || !bytes.Equal(er.Body, jsonRaw) {
		t.Fatalf("stopless facility: %+v, want 400 %s", er, jsonRaw)
	}
	c.requireClosed()
	if got := e.srv.Stats().Tenants["default"].Gate.Inflight; got != 0 {
		t.Fatalf("%d gate slots held after every exchange ended", got)
	}
}

// TestExchangeUpgrade: POST /v1/exchange is a handshake. Without the
// upgrade it is a 426 naming the protocol, as a GET is a 405; an invalid
// tenant is refused before the connection is upgraded; and the tenant the
// handshake names answers every frame, a 404 error frame when it does not
// exist, on a connection that stays open.
func TestExchangeUpgrade(t *testing.T) {
	e := newEnv(t, testUsers(100, 255), Config{Workers: 1, QueueDepth: 4})
	resp, err := e.client.Get(e.ts.URL + PathExchange)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET exchange: %d", resp.StatusCode)
	}
	facs := testFacilities(3, 4, 256)
	frame := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: trajcover.Query{Psi: 40}})
	status, raw, hdr := e.post(PathExchange, frame)
	if status != http.StatusUpgradeRequired || hdr.Get("Upgrade") != ExchangeProtocol || !strings.Contains(errorOf(t, raw), ExchangeProtocol) {
		t.Fatalf("a plain POST: %d %s (Upgrade %q), want 426 naming %s", status, raw, hdr.Get("Upgrade"), ExchangeProtocol)
	}
	for _, h := range []string{"Upgrade: " + ExchangeProtocol + "\r\n", "Connection: Upgrade\r\nUpgrade: websocket\r\n"} {
		if _, status, raw := upgradeExchange(t, e.ts.URL, h); status != http.StatusUpgradeRequired {
			t.Fatalf("handshake %q: %d %s, want 426", h, status, raw)
		}
	}
	if _, status, raw := upgradeExchange(t, e.ts.URL, upgradeHeaders+"X-Tenant: ../x\r\n"); status != http.StatusBadRequest {
		t.Fatalf("an invalid tenant: %d %s, want 400 before the upgrade", status, raw)
	}
	c, status, raw := upgradeExchange(t, e.ts.URL, upgradeHeaders+"X-Tenant: acme\r\n")
	if status != http.StatusSwitchingProtocols {
		t.Fatalf("a valid tenant: %d %s, want 101", status, raw)
	}
	ec := &exchangeConn{t: t, Conn: c}
	for i := 0; i < 2; i++ {
		if _, er := ec.ask(frame, len(facs)); er == nil || er.Status != http.StatusNotFound || !strings.Contains(string(er.Body), "acme") {
			t.Fatalf("frame %d for an unknown tenant: %+v, want a 404 error frame", i, er)
		}
	}
	// The plain POST, two handshakes without the upgrade, the invalid
	// tenant, and the two frames.
	if st := e.srv.Stats().Endpoints[PathExchange]; st.Requests != 4+2 || st.Errors != 4+2 {
		t.Fatalf("/statsz exchange counters %+v, want 6 requests and 6 errors", st)
	}
}

// TestExchangeHostileFrames: bytes that are not a stream of well-formed
// query frames are refused — never a panic, never an aliased
// out-of-range slice. A frame that cannot be taken is answered 400 (413
// past MaxBodyBytes) and the connection closed; where the JSON path has
// the same check, the message is the same. A stream that ends inside a
// frame is closed with nothing said; every whole frame before the bad one
// is answered.
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
	reserved := append([]byte(nil), good...)
	reserved[6] = 1

	cases := []struct {
		name    string
		body    []byte
		answers int    // values frames before the refusal
		wantErr string // "" : no refusal, the stream just ends
		status  int
	}{
		{"empty stream", nil, 0, "", 0},
		{"half a header", good[:5], 0, "", 0},
		{"truncated payload", good[:len(good)-9], 0, "", 0},
		{"one stray byte", append(append([]byte(nil), good...), 0), 1, "", 0},
		{"second query frame", append(append([]byte(nil), good...), good...), 2, "", 0},
		{"unknown kind", append([]byte{0, 0, 0, 0, 9, 0, 0, 0}, good...), 0, "bad frame header", 400},
		{"reserved header bytes", reserved, 0, "bad frame header", 400},
		{"a query with an ordinal", append(append([]byte(nil), good[:5]...), append([]byte{1}, good[6:]...)...), 0, "bad frame header", 400},
		{"a reply kind", AppendFloatsFrame(nil, 1, []float64{1}), 0, "want the query frame", 400},
		{"an error frame", AppendErrorFrame(nil, 1, 503, true, []byte(`{}`)), 0, "want the query frame", 400},
		{"a frame behind the query", AppendFloatsFrame(append([]byte(nil), good...), 2, []float64{1}), 1, "want the query frame", 400},
		{"declares 2 MiB", append(le.AppendUint32(nil, 2<<20), byte(FrameQuery), 0, 0, 0), 0, "request body too large", 413},
		{"shorter than its head", append(appendFrameHeader(nil, FrameQuery, 0, 16), make([]byte, 16)...), 0, "shorter than its 32-byte head", 400},
		{"count past the payload", edit(func(p []byte) { le.PutUint32(p[20:], 4) }), 0, "facilities with", 400},
		{"stop total past the payload", edit(func(p []byte) { le.PutUint32(p[24:], 1<<30) }), 0, "facilities with", 400},
		{"too many facilities", edit(func(p []byte) { le.PutUint32(p[20:], math.MaxUint32) }), 0, fmt.Sprintf("too many facilities: %d > %d", uint32(math.MaxUint32), MaxFacilities), 400},
		{"offsets start past 0", edit(func(p []byte) { le.PutUint32(p[32+4*3:], 1) }), 0, "stop offsets run", 400},
		{"offsets end short", edit(func(p []byte) { le.PutUint32(p[32+4*3+4*3:], 11) }), 0, "stop offsets run", 400},
		{"offsets decrease", edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 9); le.PutUint32(p[32+4*3+8:], 8) }), 0, "stop offsets decrease", 400},
		{"offset past the column", edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 1<<31) }), 0, fmt.Sprintf("stop offsets decrease at facility %d", facs[1].ID), 400},
		{"empty facility", edit(func(p []byte) { le.PutUint32(p[32+4*3+4:], 0) }), 0, fmt.Sprintf("facility %d has no stops", facs[0].ID), 400},
		{"NaN coordinate", edit(func(p []byte) { le.PutUint64(p[32+8*4+16*5:], nan) }), 0, fmt.Sprintf("facility %d stop 1 is not finite", facs[1].ID), 400},
		{"padding set", edit(func(p []byte) { le.PutUint32(p[32+8*4-4:], 1) }), 0, "reserved bits", 400},
		{"reserved head bits", edit(func(p []byte) { p[18] = 1 }), 0, "reserved bits", 400},
		{"a flag", edit(func(p []byte) { p[17] = 1 }), 0, "reserved bits", 400},
		{"unknown scenario", edit(func(p []byte) { p[16] = 3 }), 0, "unknown scenario code 3", 400},
		{"negative psi", edit(func(p []byte) { le.PutUint64(p, math.Float64bits(-1)) }), 0, "psi must be finite and >= 0, got -1", 400},
		{"too many stops", AppendQueryFrame(nil, tableOf([]*trajcover.Facility{longRoute}), QueryParams{Query: q}), 0, fmt.Sprintf("facility 7 has too many stops: %d > %d", MaxStops+1, MaxStops), 400},
	}
	for _, tc := range cases {
		c := dialExchange(t, e.ts.URL)
		if _, err := c.Write(tc.body); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for i := 0; i < tc.answers; i++ {
			if _, er := c.reply(len(facs)); er != nil {
				t.Fatalf("%s: frame %d answered %d %s, want values", tc.name, i, er.Status, er.Body)
			}
		}
		if tc.wantErr != "" {
			_, er := c.reply(len(facs))
			if er == nil || er.Status != tc.status || er.RetryAfter {
				t.Errorf("%s: reply %+v, want a %d error frame", tc.name, er, tc.status)
				continue
			}
			if msg := errorOf(t, er.Body); !strings.Contains(msg, tc.wantErr) {
				t.Errorf("%s: error %q, want it to say %q", tc.name, msg, tc.wantErr)
			}
		}
		// The stream ends here: a frame it ends inside is not answered.
		c.Conn.(*net.TCPConn).CloseWrite()
		c.requireClosed()
	}
	// Where the JSON path has the check, the words are its words.
	for _, pair := range []struct{ frame, jsonBody []byte }{
		{AppendQueryFrame(nil, tableOf([]*trajcover.Facility{longRoute}), QueryParams{Query: q}),
			[]byte(`{"facilities":[{"id":7,"stops":[` + strings.TrimSuffix(strings.Repeat("[0,0],", MaxStops+1), ",") + `]}],"psi":40}`)},
		{edit(func(p []byte) { le.PutUint64(p, math.Float64bits(-1)) }), mustBody(t, QueryRequest{Facilities: FacilitiesJSON(facs), Psi: -1})},
	} {
		_, er := dialExchange(t, e.ts.URL).ask(pair.frame, 1)
		_, jsonRaw, _ := e.post(PathServiceValues, pair.jsonBody)
		if er == nil || !bytes.Equal(er.Body, jsonRaw) {
			t.Errorf("exchange says %+v where the JSON path says %s", er, jsonRaw)
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
// under any read. A frame that finds every slot and waiting place taken
// is a 429 error frame with the retry flag, one whose deadline runs out
// while it waits for a slot a 504; each is counted on the endpoint and
// frees the tenant's gate slot, and the connection carries the next
// frame. A frame that arrives while the server drains is a 503 with the
// retry flag.
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
	c := dialExchange(t, e.ts.URL)

	release := blockWorkers(t, e.srv, 1)
	fillQueue(t, e.srv, 1)
	_, er := c.ask(AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q}), len(facs))
	if er == nil || er.Status != http.StatusTooManyRequests || !er.RetryAfter || !strings.Contains(errorOf(t, er.Body), "worker queue full") {
		t.Fatalf("every slot and waiting place taken: %+v, want a 429 error frame with the retry flag", er)
	}
	if got := e.srv.Stats().Endpoints[PathExchange].Rejected; got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	release()
	gateFree()

	release = blockWorkers(t, e.srv, 1)
	_, er = c.ask(AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q, TimeoutMS: 150}), len(facs))
	if er == nil || er.Status != http.StatusGatewayTimeout || er.RetryAfter || !strings.Contains(errorOf(t, er.Body), "deadline") {
		t.Fatalf("waiting behind a taken slot: %+v, want a 504 error frame", er)
	}
	if got := e.srv.Stats().Endpoints[PathExchange].DeadlineExceeded; got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
	// A waiter that timed out gave its gate slot back as it answered.
	gateFree()
	release()

	c.values(AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q}), len(facs))
	e.srv.BeginDrain()
	_, er = c.ask(AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q}), len(facs))
	if er == nil || er.Status != http.StatusServiceUnavailable || !er.RetryAfter || !strings.Contains(errorOf(t, er.Body), "draining") {
		t.Fatalf("a frame while draining: %+v, want a 503 error frame with the retry flag", er)
	}
}

// TestExchangeAllocs pins the backend's cost of one paper-default
// exchange frame — 128 facilities of 32 stops on two shards — over a real
// loopback connection, counted process-wide with a client that allocates
// nothing: what is left is the summed values. The frame is read into
// pooled storage that the facilities alias, the reply frame is built in
// and the deadline context is armed in, so the 67 KB query frame, its
// deadline and its answer cost no allocation at all.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := newEnv(t, testUsers(2000, 301), Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 30 * time.Second})
	facs := testFacilities(128, 32, 302)
	frame := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: trajcover.Query{Scenario: trajcover.Binary, Psi: 40}})
	c := dialExchange(t, e.ts.URL)
	reply := make([]byte, 8*len(facs))
	run := func() {
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.replies++
		if _, _, err := ReadReply(c, reply, len(facs), c.replies); err != nil {
			t.Fatal(err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(50, run)
	t.Logf("backend half of a 128-facility exchange frame: %.0f allocs", allocs)
	if allocs > 2 {
		t.Fatalf("an exchange frame allocates %.0f/op, want <= 2", allocs)
	}
}

// streamConn is an exchange connection over bytes in memory: what the
// frontend sent, and what the backend answered. As a frontend does, it
// stays open until the replies it waits for have come: its end of stream
// — the connection closing, which cancels a running frame — is held back
// until the backend has written want replies (or 10 s have passed).
type streamConn struct {
	net.Conn // nil: only the methods below are called
	in       *bytes.Reader
	out      bytes.Buffer
	want     int
	wrote    chan struct{}
}

func (c *streamConn) Read(p []byte) (int, error) {
	n, err := c.in.Read(p)
	if err == io.EOF {
		timeout := time.After(10 * time.Second)
		for ; c.want > 0; c.want-- {
			select {
			case <-c.wrote:
			case <-timeout:
				c.want = 0
				return 0, err
			}
		}
	}
	return n, err
}

// Write takes one reply: the backend writes each in one call.
func (c *streamConn) Write(p []byte) (int, error) {
	c.out.Write(p)
	select {
	case c.wrote <- struct{}{}:
	default:
	}
	return len(p), nil
}

func (c *streamConn) Close() error { return nil }

// FuzzExchangeFrames throws arbitrary bytes at the exchange's decoders as
// each side meets them. As a stream of query frames on one connection
// (the backend's own loop) every whole query frame is answered in order —
// its values, bit for bit the index's — until the first frame that cannot
// be taken, which is answered with one 400 or 413 error frame, and
// nothing after it; a stream that ends inside a frame leaves that frame
// unanswered. Each query frame is also decoded again at a fuzzed
// alignment, so the aliasing and the copying paths both run, and an
// accepted one must decode to exactly the facilities (IDs, stop bits,
// MBR, canonical hash) DecodeQueryRequest produces from the equivalent
// JSON body. As a stream of replies (the frontend's reader) the bytes are
// an answer only while they are values frames of exactly the count asked
// for or well-formed error frames. Never a panic.
func FuzzExchangeFrames(f *testing.F) {
	q := trajcover.Query{Scenario: trajcover.PointCount, Psi: 300}
	facs := testFacilities(3, 4, 311)
	good := AppendQueryFrame(nil, tableOf(facs), QueryParams{Query: q, Workers: 2, TimeoutMS: 250})
	f.Add(byte(0), good)
	f.Add(byte(3), AppendFloatsFrame(append([]byte(nil), good...), 1, []float64{2, 0}))
	f.Add(byte(0), AppendQueryFrame(nil, tableOf(nil), QueryParams{}))
	f.Add(byte(2), AppendFloatsFrame(nil, 1, []float64{1, 2.5}))
	f.Add(byte(7), good[:len(good)-3])
	f.Add(byte(2), append(AppendFloatsFrame(nil, 1, []float64{1, 2.5}), 0))
	f.Add(byte(1), AppendFloatsFrame(AppendFloatsFrame(nil, 1, []float64{4}), 2, []float64{4}))
	// Whole streams: frames one after another on one connection.
	f.Add(byte(1), append(append(append([]byte(nil), good...), good...), good...))
	f.Add(byte(5), append(append([]byte(nil), good...), AppendQueryFrame(nil, tableOf(facs[:1]), QueryParams{Query: q})...))
	// One reply of each shape a reader refuses: another kind, another
	// count, a trailing byte and a second frame (the next reply's start),
	// another query's ordinal, a cut, and error frames short, with a
	// status out of range, with an unknown flag — beside well-formed
	// error frames.
	f.Add(byte(3), append([]byte(nil), good...))
	f.Add(byte(3), AppendFloatsFrame(nil, 1, []float64{1, 2}))
	f.Add(byte(3), append(AppendFloatsFrame(nil, 1, []float64{1, 2, 3}), 9))
	f.Add(byte(3), AppendFloatsFrame(AppendFloatsFrame(nil, 1, []float64{1, 2, 3}), 1, []float64{4, 5, 6}))
	f.Add(byte(3), AppendFloatsFrame(nil, 2, []float64{1, 2, 3}))
	f.Add(byte(3), AppendFloatsFrame(nil, 1, []float64{1, 2, 3})[:20])
	f.Add(byte(3), appendFrameHeader(nil, FrameError, 1, 2))
	f.Add(byte(3), AppendErrorFrame(nil, 1, 200, false, []byte(`{"error":"x"}`)))
	f.Add(byte(3), AppendErrorFrame(nil, 1, 600, false, nil))
	f.Add(byte(3), append(appendFrameHeader(nil, FrameError, 1, 4), 0x93, 1, 2, 0))
	f.Add(byte(3), AppendErrorFrame(AppendErrorFrame(nil, 1, 503, true, []byte(`{"error":"draining"}`)), 2, 429, true, nil))
	f.Add(byte(3), AppendFloatsFrame(AppendErrorFrame(nil, 1, 400, false, []byte(`{}`)), 2, []float64{1, 2, 3}))

	idx, err := trajcover.NewIndex(testUsers(60, 312), liveOpts())
	if err != nil {
		f.Fatal(err)
	}
	srv := New(idx, Config{Workers: 1, QueueDepth: 4, DefaultTimeout: 30 * time.Second, MaxBodyBytes: 1 << 20})
	f.Cleanup(srv.Close)
	ep := srv.stats[PathExchange]
	f.Fuzz(func(t *testing.T, shift byte, data []byte) {
		requireWireError := func(err error) {
			t.Helper()
			var tooBig *http.MaxBytesError
			if !errors.As(err, &tooBig) {
				requireBadRequest(t, err)
			}
		}
		// What the backend's loop must answer: every whole query frame, up
		// to and including the first frame it cannot take; none of a frame
		// the stream ends inside.
		type expectation struct {
			qf  *QueryFrame
			err error
		}
		var want []expectation
		for rest := data; len(rest) >= FrameHeaderLen; {
			kind, _, n, err := frameHeader(rest[:FrameHeaderLen], 1<<20)
			if err == nil && int64(len(rest)-FrameHeaderLen) < n {
				break
			}
			qf := new(QueryFrame)
			if err == nil && kind != FrameQuery {
				err = badRequestf("not a query frame")
			}
			if err == nil {
				payload := rest[FrameHeaderLen : FrameHeaderLen+n]
				moved := make([]byte, int(shift%8)+len(payload))[shift%8:]
				copy(moved, payload)
				if err = qf.Decode(moved); err != nil {
					requireBadRequest(t, err)
					if len(qf.Facilities) != 0 {
						t.Fatalf("a rejected frame left %d facilities behind", len(qf.Facilities))
					}
				} else {
					requireFrameMatchesJSON(t, qf)
				}
				rest = rest[FrameHeaderLen+n:]
			}
			want = append(want, expectation{qf, err})
			if err != nil {
				requireWireError(err)
				break
			}
		}
		c := &streamConn{in: bytes.NewReader(data), want: len(want), wrote: make(chan struct{}, len(want)+1)}
		srv.serveExchange(c, bufio.NewReader(c), ep, "default")
		replies := bytes.NewReader(c.out.Bytes())
		for i, w := range want {
			vals, _, rerr := ReadReply(replies, nil, len(w.qf.Facilities), uint16(i+1))
			var er *ErrorReply
			if w.err != nil {
				if !errors.As(rerr, &er) || (er.Status != http.StatusBadRequest && er.Status != http.StatusRequestEntityTooLarge) {
					t.Fatalf("a frame the backend cannot take (%v) was answered %v", w.err, rerr)
				}
				break
			}
			// The index's own answer — or its refusal, a 400 — unless the
			// frame's own timeout_ms ran out first: a 504.
			qf := w.qf
			wantVals, werr := idx.ServiceValuesCtx(context.Background(), qf.Facilities, qf.Query, qf.Workers)
			switch {
			case errors.As(rerr, &er) && er.Status == http.StatusGatewayTimeout && qf.TimeoutMS > 0:
			case werr != nil:
				if !errors.As(rerr, &er) || er.Status != http.StatusBadRequest {
					t.Fatalf("the index refuses a frame (%v) the backend answered %v", werr, rerr)
				}
			case rerr != nil:
				t.Fatalf("a well-formed query frame was answered %v", rerr)
			case !slices.EqualFunc(vals, wantVals, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }):
				t.Fatalf("values frame %v, index %v", vals, wantVals)
			}
		}
		if replies.Len() != 0 {
			t.Fatalf("%d bytes answered past the %d replies the stream asks for", replies.Len(), len(want))
		}

		// The frontend's reader over the same bytes as a stream of replies.
		for _, n := range []int{int(shift), (len(data) - FrameHeaderLen) / 8} {
			r := bytes.NewReader(data)
			for ordinal := uint16(1); ; ordinal++ {
				left := r.Len()
				vals, started, err := ReadReply(r, nil, max(n, 0), ordinal)
				if started != (left > 0) {
					t.Fatalf("started %v with %d bytes left", started, left)
				}
				var er *ErrorReply
				switch {
				case err == io.EOF || err == io.ErrUnexpectedEOF: // the stream ended
				case errors.As(err, &er):
					if er.Status < 400 || er.Status > 599 {
						t.Fatalf("accepted an error frame of status %d", er.Status)
					}
					continue
				case err != nil:
					requireWireError(err)
				case len(vals) != max(n, 0):
					t.Fatalf("accepted a reply of %d values to %d facilities", len(vals), n)
				default:
					continue
				}
				break
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
