package server

// The exchange: the internal frontend↔backend leg of a distributed read.
//
// A scatter-gather frontend (internal/dist) needs one thing of a shard
// group: every facility's exact service value over the group's corpus.
// It asks over a persistent exchange connection: one HTTP request,
//
//	POST /v1/exchange HTTP/1.1
//	Connection: Upgrade
//	Upgrade: tqexchange/1
//
// answered 101 Switching Protocols, after which the connection carries
// frames, not HTTP. The handshake is where the connection-level checks
// run once: draining (503), a replica's readiness (503 until it has
// caught up; it never reverts), and the tenant (X-Tenant, 400 when
// invalid). A POST without the upgrade is 426 Upgrade Required. From
// then on the frontend sends one query frame at a time and the backend
// answers each with one reply frame: a values frame, or an error frame
// carrying the status, Retry-After hint and JSON body an HTTP endpoint
// would have answered. Each query frame is a read like /v1/servicevalues
// — the tenant's gate, slot admission, the frame's timeout_ms as the
// deadline, the endpoint's /statsz counters — and since the whole answer
// is one ServiceValuesCtx call, every number a backend contributes to one
// /v1/topk comes from one epoch capture, one acknowledged prefix of its
// write history. A frame the backend cannot take — a bad header, one over
// MaxBodyBytes, a query that does not decode — is answered with its error
// frame and the connection is closed; so is one cut short. A connection
// the frontend closes cancels the frame running on it.
//
// Frames are little-endian, length-prefixed: an 8-byte header — payload
// length (u32), kind (u8), ordinal (u16), a zero byte — then the payload.
// A query's ordinal is 0; a reply's is that of the query it answers,
// counted from 1 on its connection (modulo 2^16), and a frontend takes no
// reply whose ordinal is not its query's: a frame a backend sent beyond
// its reply is refused, never read as the next exchange's answer.
//
//	query  (→ backend)
//	    0  ψ                f64
//	    8  timeout_ms       u32   0: the server default
//	   12  workers          u32
//	   16  scenario         u8    0 binary, 1 pointcount, 2 length
//	   17  zero             u8, u16
//	   20  n  facilities    u32
//	   24  t  stops in all  u32
//	   28  zero             u32
//	   32  ids              n × u32
//	       stop offsets     (n+1) × u32, offsets[0] = 0, offsets[n] = t, never decreasing
//	       zero             u32   pads the columns above to a multiple of 8
//	       coordinates      t × (x f64, y f64); facility i owns [offsets[i], offsets[i+1])
//	values (→ frontend)  n × f64, indexed like the facilities
//	error  (→ frontend)
//	    0  status           u16   400–599
//	    2  flags            u8    1: Retry-After; no other bit is set
//	    3  zero             u8
//	    4  body             the JSON error document, to the end of the payload
//
// Every column is written and read by internal/mmap's one codec:
// mmap.Bytes of the column, mmap.View over its bytes. With the 8-byte
// frame header and the 32-byte head, the coordinate column starts
// 8-aligned in any buffer that is, so mmap.View aliases it; a misaligned
// buffer (or a big-endian build) takes View's copy and decodes to the
// same facilities.
//
// This is not a public API: the frame layout may change with the
// frontend, and the upgrade token names its version.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// FrameKind names what a frame carries.
type FrameKind uint8

// The frame kinds; see the layout above.
const (
	FrameQuery FrameKind = iota + 1
	FrameValues
	FrameError
)

const (
	// ExchangeProtocol is the Upgrade token of an exchange connection.
	ExchangeProtocol = "tqexchange/1"
	// FrameHeaderLen is the length of the header in front of every
	// frame's payload.
	FrameHeaderLen = 8
	queryHeadLen   = 32
	errorHeadLen   = 4
	// maxErrorFrame bounds the error frame a reader takes.
	maxErrorFrame = 1 << 16
)

// scenarioNames maps a query frame's scenario code to the wire name
// parseScenario takes, so both decoders accept exactly the same set.
var scenarioNames = [...]string{trajcover.Binary: "binary", trajcover.PointCount: "pointcount", trajcover.Length: "length"}

// frameHeader checks a frame header and returns its kind, ordinal and
// payload length; a payload over max is an *http.MaxBytesError.
func frameHeader(hdr []byte, max int64) (FrameKind, uint16, int64, error) {
	le := binary.LittleEndian
	n, kind, ordinal := int64(le.Uint32(hdr)), FrameKind(hdr[4]), le.Uint16(hdr[5:])
	if kind < FrameQuery || kind > FrameError || hdr[7] != 0 || (kind == FrameQuery && ordinal != 0) {
		return 0, 0, 0, badRequestf("exchange: bad frame header % x", hdr)
	}
	if n > max {
		return 0, 0, 0, fmt.Errorf("exchange: a frame of %d bytes is over the %d-byte limit: %w", n, max, &http.MaxBytesError{Limit: max})
	}
	return kind, ordinal, n, nil
}

// readPayload reads a frame's n-byte payload from r into buf's storage,
// regrown when it is shorter; the payload is 8-aligned whenever buf is.
// A stream that ends inside it is io.ErrUnexpectedEOF.
func readPayload(r io.Reader, buf []byte, n int64) ([]byte, error) {
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return buf[:0], err
	}
	return buf, nil
}

// appendFrameHeader starts a frame of n payload bytes.
func appendFrameHeader(dst []byte, kind FrameKind, ordinal uint16, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint16(append(dst, byte(kind)), ordinal)
	return append(dst, 0)
}

// QueryParams are a query frame's scalar fields.
type QueryParams struct {
	Query     trajcover.Query
	Workers   int
	TimeoutMS int64
}

// QueryFrameLen is the length of the query frame AppendQueryFrame writes
// for t, header included.
func QueryFrameLen(t trajectory.FacilityTable) int {
	return FrameHeaderLen + queryHeadLen + 8*(t.Len()+1) + 16*t.TotalStops()
}

// AppendQueryFrame appends the query frame for t, which must be within
// the decoder's limits (a decoded request's table is).
func AppendQueryFrame(dst []byte, t trajectory.FacilityTable, p QueryParams) []byte {
	n := t.Len()
	dst = appendFrameHeader(dst, FrameQuery, 0, QueryFrameLen(t)-FrameHeaderLen)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Query.Psi))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(min(max(p.TimeoutMS, 0), math.MaxUint32)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(max(p.Workers, 0)))
	dst = append(dst, byte(p.Query.Scenario), 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.TotalStops()))
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	ids, off, stops := t.Columns()
	dst = append(dst, mmap.Bytes(ids)...)
	if off == nil {
		off = []uint32{0} // the zero table's
	}
	dst = append(dst, mmap.Bytes(off)...)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	return append(dst, mmap.Bytes(stops)...)
}

// QueryFrame is a decoded query frame. Decode reuses its storage, so one
// value serves exchange after exchange without allocating.
type QueryFrame struct {
	QueryParams
	// Table is the frame's facility batch, its columns laid over the
	// payload Decode was given: it is valid while that is.
	Table trajectory.FacilityTable
	// Facilities are Table's facilities, in order, as the query API takes
	// them; their stops alias the payload too.
	Facilities []*trajcover.Facility

	slab []trajcover.Facility
}

// Decode validates a query frame's payload and builds its facilities.
// Everything is checked before anything is aliased or indexed — the
// counts against the payload's length, the offsets against each other
// (trajectory.NewFacilityTable), then the JSON body's facility checks,
// with its messages — so hostile bytes are an error, never a panic and
// never an out-of-range slice.
func (qf *QueryFrame) Decode(payload []byte) error {
	qf.Table, qf.Facilities = trajectory.FacilityTable{}, qf.Facilities[:0]
	if len(payload) < queryHeadLen {
		return badRequestf("exchange: query frame of %d bytes is shorter than its %d-byte head", len(payload), queryHeadLen)
	}
	le := binary.LittleEndian
	scenario := payload[16]
	if int(scenario) >= len(scenarioNames) {
		return badRequestf("exchange: unknown scenario code %d", scenario)
	}
	if payload[17] != 0 || le.Uint16(payload[18:]) != 0 || le.Uint32(payload[28:]) != 0 {
		return badRequestf("exchange: query frame sets reserved bits")
	}
	req := QueryRequest{
		Scenario:  scenarioNames[scenario],
		Psi:       math.Float64frombits(le.Uint64(payload)),
		Workers:   int(min(le.Uint32(payload[12:]), MaxRequestWorkers)),
		TimeoutMS: int64(le.Uint32(payload[8:])),
	}
	q, err := req.validate(false)
	if err != nil {
		return err
	}
	qf.QueryParams = QueryParams{Query: q, Workers: req.Workers, TimeoutMS: req.TimeoutMS}

	n, stops := uint64(le.Uint32(payload[20:])), uint64(le.Uint32(payload[24:]))
	if err := checkFacilityCount(n); err != nil {
		return err
	}
	columns := queryHeadLen + 8*(n+1)
	if want := columns + 16*stops; uint64(len(payload)) != want {
		return badRequestf("exchange: query frame is %d bytes, %d facilities with %d stops take %d", len(payload), n, stops, want)
	}
	if le.Uint32(payload[columns-4:]) != 0 {
		return badRequestf("exchange: query frame sets reserved bits")
	}
	t, err := trajectory.NewFacilityTable(
		mmap.View[trajectory.ID](payload[queryHeadLen:queryHeadLen+4*n]),
		mmap.View[uint32](payload[queryHeadLen+4*n:columns-4]),
		mmap.View[geo.Point](payload[columns:]))
	if err != nil {
		return badRequestf("exchange: %v", err)
	}
	if uint64(cap(qf.slab)) < n {
		qf.slab, qf.Facilities = make([]trajcover.Facility, n), make([]*trajcover.Facility, 0, n)
	}
	facs, err := facilities(t, qf.slab, qf.Facilities)
	if err != nil {
		return err
	}
	qf.Table, qf.Facilities = t, facs
	return nil
}

// AppendFloatsFrame appends the values frame holding vals, the reply to
// the query of that ordinal.
func AppendFloatsFrame(dst []byte, ordinal uint16, vals []float64) []byte {
	return append(appendFrameHeader(dst, FrameValues, ordinal, 8*len(vals)), mmap.Bytes(vals)...)
}

// AppendErrorFrame appends the error frame carrying an HTTP error answer
// to the query of that ordinal: its status, whether it carries
// Retry-After, and its JSON body.
func AppendErrorFrame(dst []byte, ordinal uint16, status int, retryAfter bool, body []byte) []byte {
	dst = appendFrameHeader(dst, FrameError, ordinal, errorHeadLen+len(body))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(status))
	flags := byte(0)
	if retryAfter {
		flags = 1
	}
	return append(append(dst, flags, 0), body...)
}

// ErrorReply is a decoded error frame: the answer a backend gave in place
// of values, as the HTTP endpoint would have given it.
type ErrorReply struct {
	Status     int
	RetryAfter bool
	Body       []byte
}

func (e *ErrorReply) Error() string { return fmt.Sprintf("exchange: %d %s", e.Status, e.Body) }

// ReadReply reads the reply to the query of that ordinal from r into
// buf's storage (regrown when it is shorter): a values frame of exactly n
// numbers, or an error frame, returned as an *ErrorReply. A reply of any
// other shape — another kind, another count, another ordinal, a status
// outside 400–599, a flag bit other than Retry-After's — is an error,
// never an answer, and so is a stream that ends inside it. started
// reports whether any byte of the reply arrived: a connection that ended
// before one may never have seen the query.
func ReadReply(r io.Reader, buf []byte, n int, ordinal uint16) (vals []float64, started bool, err error) {
	if cap(buf) < FrameHeaderLen {
		buf = make([]byte, FrameHeaderLen, max(FrameHeaderLen, 8*n))
	}
	hdr := buf[:FrameHeaderLen]
	if m, err := io.ReadFull(r, hdr); err != nil {
		return nil, m > 0, err
	}
	kind, got, size, err := frameHeader(hdr, max(8*int64(n), maxErrorFrame))
	switch {
	case err != nil:
		return nil, true, err
	case kind != FrameValues && kind != FrameError:
		return nil, true, badRequestf("exchange: reply frame of kind %d, want the values frame", kind)
	case got != ordinal:
		return nil, true, badRequestf("exchange: a reply to query %d, want %d's", got, ordinal)
	case kind == FrameValues && size != 8*int64(n):
		return nil, true, badRequestf("exchange: reply of %d bytes for %d facilities", size, n)
	}
	payload, err := readPayload(r, buf, size)
	if err != nil {
		return nil, true, err
	}
	if kind == FrameValues {
		return mmap.View[float64](payload), true, nil
	}
	if len(payload) < errorHeadLen {
		return nil, true, badRequestf("exchange: error frame of %d bytes is shorter than its %d-byte head", len(payload), errorHeadLen)
	}
	status, flags := int(binary.LittleEndian.Uint16(payload)), payload[2]
	if status < 400 || status > 599 || flags&^1 != 0 || payload[3] != 0 {
		return nil, true, badRequestf("exchange: error frame with status %d and flags %#x", status, flags)
	}
	return nil, true, &ErrorReply{Status: status, RetryAfter: flags == 1, Body: payload[errorHeadLen:]}
}

// exchangeState is the storage one frame works in, pooled so that a
// steady stream of exchanges allocates none of it: the query frame's
// payload, which the decoded facilities alias, the decoded form, the
// reply frame and the frame's deadline. An exchange connection takes one
// when a frame starts arriving and gives it back once the reply is
// written, so an idle connection holds none.
type exchangeState struct {
	ordinal  uint16 // the frame's number on its connection, which its reply carries
	query    []byte
	qf       QueryFrame
	reply    []byte
	deadline deadline
}

var exchangeStates = sync.Pool{New: func() any { return new(exchangeState) }}

func (x *exchangeState) release() {
	// Like strictDecoder: storage grown past maxPooledBody is not kept.
	if cap(x.query)+cap(x.reply) <= maxPooledBody {
		exchangeStates.Put(x)
	}
}

// read takes the rest of a query frame whose header is hdr into x. A
// failure to decode it is a 400, a frame over max a 413; anything else
// is the stream's end.
func (x *exchangeState) read(r io.Reader, hdr []byte, max int64) error {
	kind, _, n, err := frameHeader(hdr, max)
	if err != nil {
		return err
	}
	if x.query, err = readPayload(r, x.query, n); err != nil {
		return err
	}
	if kind != FrameQuery {
		return badRequestf("exchange: frame of kind %d, want the query frame", kind)
	}
	return x.qf.Decode(x.query)
}

// run answers the decoded exchange: every facility's value over the
// tenant's index, as one values frame built in x.
func (x *exchangeState) run(ctx context.Context, idx *trajcover.Index) response {
	vals, err := idx.ServiceValuesCtx(ctx, x.qf.Facilities, x.qf.Query, x.qf.Workers)
	if err != nil {
		return errResponse(err)
	}
	x.reply = AppendFloatsFrame(x.reply[:0], x.ordinal, vals)
	return response{status: http.StatusOK, body: x.reply}
}

// replyFrame is the frame that answers resp: the values frame run built,
// or the error frame of an error answer, built in x.
func (x *exchangeState) replyFrame(resp response) []byte {
	if resp.status == http.StatusOK {
		return resp.body
	}
	x.reply = AppendErrorFrame(x.reply[:0], x.ordinal, resp.status, resp.retryAfter, resp.body)
	return x.reply
}

// switchingProtocols is the handshake's answer.
var switchingProtocols = []byte("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + ExchangeProtocol + "\r\n\r\n")

// handleExchange serves POST /v1/exchange: the handshake that turns the
// connection into an exchange stream (layout above), served until either
// side closes it or Close does.
func (s *Server) handleExchange(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathExchange]
	if s.rejectDraining(w, ep) {
		return
	}
	if !headerHasToken(r.Header, "Connection", "upgrade") || !headerHasToken(r.Header, "Upgrade", ExchangeProtocol) {
		ep.requests.Add(1)
		ep.errors.Add(1)
		w.Header()["Connection"] = upgradeToken
		w.Header()["Upgrade"] = exchangeToken
		WriteJSON(w, http.StatusUpgradeRequired, ErrorResponse{Error: "exchange: upgrade the connection to " + ExchangeProtocol})
		return
	}
	tid, err := resolveTenant(r, "")
	if err != nil {
		s.rejectDecode(w, ep, err)
		return
	}
	conn, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		ep.requests.Add(1)
		ep.errors.Add(1)
		WriteJSON(w, http.StatusInternalServerError, ErrorResponse{Error: fmt.Sprintf("exchange: %v", err)})
		return
	}
	if !s.holdConn(conn) {
		conn.Close()
		return
	}
	defer s.dropConn(conn)
	// The server's read and write timeouts are for HTTP requests; a frame
	// is bounded by its own deadline.
	conn.SetDeadline(time.Time{})
	if _, err := conn.Write(switchingProtocols); err != nil {
		conn.Close()
		return
	}
	s.serveExchange(conn, brw.Reader, ep, tid)
}

var (
	upgradeToken  = []string{"Upgrade"}
	exchangeToken = []string{ExchangeProtocol}
)

// headerHasToken reports whether a comma-separated header lists token,
// case-insensitively.
func headerHasToken(h http.Header, key, token string) bool {
	for _, v := range h[key] {
		for _, t := range strings.Split(v, ",") {
			if strings.EqualFold(strings.TrimSpace(t), token) {
				return true
			}
		}
	}
	return false
}

// frameIn is one query frame a connection's reader took, or the error
// that ended its stream.
type frameIn struct {
	x   *exchangeState
	err error
}

// refused reports whether a frame error is one the backend answers — a
// frame it could not take, 400 or 413 — rather than the stream's end.
func refused(err error) bool {
	var bad *badRequest
	var tooBig *http.MaxBytesError
	return errors.As(err, &bad) || errors.As(err, &tooBig)
}

// serveExchange answers conn's query frames one by one until the stream
// ends, then closes conn. A reader goroutine takes each frame while the
// previous one runs, so it is blocked in a read whenever the frontend has
// nothing in flight: a connection closed under a running frame ends that
// read at once, and cancels the frame's context.
func (s *Server) serveExchange(conn net.Conn, br *bufio.Reader, ep *endpointStats, tid string) {
	ctx, cancel := context.WithCancel(context.Background())
	frames, stop, stopped := make(chan frameIn), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		var hdr [FrameHeaderLen]byte
		for {
			var in frameIn
			if _, in.err = io.ReadFull(br, hdr[:]); in.err == nil {
				in.x = exchangeStates.Get().(*exchangeState)
				in.err = in.x.read(br, hdr[:], s.cfg.MaxBodyBytes)
			}
			if in.err != nil && !refused(in.err) {
				cancel() // the stream ended: nobody waits for the running frame
			}
			select {
			case frames <- in:
			case <-stop:
				if in.x != nil {
					in.x.release()
				}
				return
			}
			if in.err != nil {
				return
			}
		}
	}()
	defer func() {
		close(stop)
		conn.Close()
		<-stopped
		cancel()
	}()
	for ordinal := uint16(1); ; ordinal++ {
		in := <-frames
		if in.err != nil && !refused(in.err) {
			if in.x != nil {
				in.x.release()
			}
			return // a stream that ended is not answered
		}
		if in.x != nil {
			in.x.ordinal = ordinal
		}
		var reply []byte
		start, timed := time.Now(), false
		switch {
		case in.err != nil:
			ep.requests.Add(1)
			ep.errors.Add(1)
			reply = AppendErrorFrame(nil, ordinal, bodyErrorStatus(in.err), false, mustMarshal(ErrorResponse{Error: in.err.Error()}))
		case s.draining.Load():
			ep.requests.Add(1)
			ep.errors.Add(1)
			reply = in.x.replyFrame(response{status: http.StatusServiceUnavailable, body: mustMarshal(ErrorResponse{Error: "server draining"}), retryAfter: true})
		default:
			var resp response
			resp, timed = s.execute(ctx, &in.x.deadline, ep, tid, false, in.x.qf.TimeoutMS, nil, in.x.run)
			reply = in.x.replyFrame(resp)
		}
		_, err := conn.Write(reply)
		if timed {
			ep.observe(time.Since(start))
		}
		if in.x != nil {
			in.x.release()
		}
		if err == nil && in.err != nil {
			lingerClose(conn, br, s.cfg.MaxBodyBytes)
		}
		if err != nil || in.err != nil {
			return
		}
	}
}

// lingerTimeout bounds how long lingerClose reads a refused stream away.
const lingerTimeout = 500 * time.Millisecond

// lingerClose ends a stream whose last frame was refused, possibly with
// bytes of it unread: closing over unread bytes resets the connection,
// which can destroy the error frame before the frontend reads it. So the
// write side closes first, and what the frontend still sends is read
// away — up to max bytes, for at most lingerTimeout — as net/http does
// after a 413.
func lingerClose(conn net.Conn, br *bufio.Reader, max int64) {
	cw, ok := conn.(interface{ CloseWrite() error })
	if !ok || cw.CloseWrite() != nil {
		return
	}
	conn.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, io.LimitReader(br, max))
}
