package server

// The exchange: the internal frontend↔backend leg of a distributed read.
//
// A scatter-gather frontend (internal/dist) asks a shard group in steps —
// every facility's upper bound, then round after round of exact values
// for the facilities the bounds still allow. POST /v1/exchange carries all
// of one read's steps against one backend on ONE open request: the
// request body is a stream of frames the frontend writes as the merge
// proceeds, the response body the stream of reply frames, both chunked
// and interleaved (http.ResponseController.EnableFullDuplex on HTTP/1.1;
// HTTP/2 streams are full duplex as they are). The facilities cross once,
// in the first frame, as columns this side aliases in place; later frames
// name them by index. And because the handler pins one epoch capture
// (LiveShardedIndex.Pin) for the life of the request, every number a
// backend contributes to one answer comes from one acknowledged prefix of
// its write history.
//
// Frames are little-endian, length-prefixed: an 8-byte header — payload
// length (u32), kind (u8), three zero bytes — then the payload.
//
//	query  (→ backend, first, once)
//	    0  ψ                f64
//	    8  timeout_ms       u32   0: the server default
//	   12  workers          u32
//	   16  scenario         u8    0 binary, 1 pointcount, 2 length
//	   17  flags            u8    bit 0: answer a bounds frame before any round
//	   18  zero             u16
//	   20  n  facilities    u32
//	   24  t  stops in all  u32
//	   28  zero             u32
//	   32  ids              n × u32
//	       stop offsets     (n+1) × u32, offsets[0] = 0, offsets[n] = t, never decreasing
//	       zero             u32   pads the columns above to a multiple of 8
//	       coordinates      t × (x f64, y f64); facility i owns [offsets[i], offsets[i+1])
//	round  (→ backend)   c × u32 facility indexes, each < n, c <= n
//	bounds (→ frontend)  n × f64, indexed like the facilities
//	values (→ frontend)  c × f64, indexed like the round that asked
//	error  (→ frontend)  status u32, flags u32 (bit 0: retry after the hint),
//	                     then the JSON error body an HTTP answer would carry
//
// With the 8-byte frame header and the 32-byte head, the coordinate
// column starts 8-aligned in any buffer that is, so mmap.Points aliases
// it; a misaligned buffer (or a big-endian build) takes mmap's copying
// fallback and decodes to the same facilities.
//
// Errors before the first reply frame are ordinary HTTP answers (status,
// JSON body, Retry-After) like every other endpoint's; once the 200 and a
// frame have gone out, an error is an error frame and ends the exchange.
// The frontend ends a healthy one by closing the request body.
//
// This is not a public API: it needs a full-duplex path end to end (no
// buffering proxy), and the frame layout may change with the frontend.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"os"
	"sync"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/mmap"
)

// FrameKind names what a frame carries.
type FrameKind uint8

// The frame kinds; see the layout above.
const (
	FrameQuery FrameKind = iota + 1
	FrameRound
	FrameBounds
	FrameValues
	FrameError
)

const (
	// FrameHeaderLen is the length of the header in front of every
	// frame's payload.
	FrameHeaderLen = 8
	queryHeadLen   = 32
)

// scenarioNames maps a query frame's scenario code to the wire name
// parseScenario takes, so both decoders accept exactly the same set.
var scenarioNames = [...]string{trajcover.Binary: "binary", trajcover.PointCount: "pointcount", trajcover.Length: "length"}

// ReadFrame reads one frame from r and returns its kind and payload. The
// payload lives in buf's storage, regrown when the frame is longer, so a
// caller that hands the returned payload back as the next buf reads a
// whole exchange into one allocation; it is 8-aligned whenever buf is. A
// clean end of stream between frames is io.EOF; a frame that declares
// more than max bytes is an *http.MaxBytesError before any of it is read.
func ReadFrame(r io.Reader, buf []byte, max int64) (FrameKind, []byte, error) {
	if cap(buf) < FrameHeaderLen {
		buf = make([]byte, FrameHeaderLen, 512)
	}
	hdr := buf[:FrameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, buf[:0], err
	}
	n, kind := int64(binary.LittleEndian.Uint32(hdr)), FrameKind(hdr[4])
	if kind < FrameQuery || kind > FrameError || hdr[5]|hdr[6]|hdr[7] != 0 {
		return 0, buf[:0], badRequestf("exchange: bad frame header % x", hdr)
	}
	if n > max {
		return 0, buf[:0], &http.MaxBytesError{Limit: max}
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, buf[:0], err
	}
	return kind, buf, nil
}

// appendFrameHeader starts a frame of n payload bytes.
func appendFrameHeader(dst []byte, kind FrameKind, n int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	return append(dst, byte(kind), 0, 0, 0)
}

// QueryParams are a query frame's scalar fields.
type QueryParams struct {
	Query     trajcover.Query
	Workers   int
	TimeoutMS int64
	// Bounds asks for a bounds frame before any round.
	Bounds bool
}

func countStops(facs []*trajcover.Facility) int {
	stops := 0
	for _, f := range facs {
		stops += len(f.Stops)
	}
	return stops
}

// QueryFrameLen is the length of the query frame AppendQueryFrame writes
// for facs, header included.
func QueryFrameLen(facs []*trajcover.Facility) int {
	return FrameHeaderLen + queryHeadLen + 8*(len(facs)+1) + 16*countStops(facs)
}

// AppendQueryFrame appends the query frame for facs, which must be within
// the decoder's limits (a decoded request's are).
func AppendQueryFrame(dst []byte, facs []*trajcover.Facility, p QueryParams) []byte {
	stops := countStops(facs)
	dst = appendFrameHeader(dst, FrameQuery, queryHeadLen+8*(len(facs)+1)+16*stops)
	var flags byte
	if p.Bounds {
		flags = 1
	}
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Query.Psi))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(min(max(p.TimeoutMS, 0), math.MaxUint32)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(max(p.Workers, 0)))
	dst = append(dst, byte(p.Query.Scenario), flags, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(facs)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(stops))
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	for _, f := range facs {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(f.ID))
	}
	off := uint32(0)
	for _, f := range facs {
		dst = binary.LittleEndian.AppendUint32(dst, off)
		off += uint32(len(f.Stops))
	}
	dst = binary.LittleEndian.AppendUint32(dst, off)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	for _, f := range facs {
		dst = mmap.AppendPoints(dst, f.Stops)
	}
	return dst
}

// QueryFrame is a decoded query frame. Decode reuses its storage, so one
// value serves exchange after exchange without allocating.
type QueryFrame struct {
	QueryParams
	// Facilities are the frame's facilities, in order. Their stops alias
	// the payload Decode was given: they are valid while it is.
	Facilities []*trajcover.Facility

	slab []trajcover.Facility
}

// Decode validates a query frame's payload and builds its facilities.
// Everything is checked before anything is aliased or indexed — the
// counts against the payload's length, the offsets against each other,
// then what decodeFacilities checks, with its messages — so hostile bytes
// are an error, never a panic and never an out-of-range slice.
func (qf *QueryFrame) Decode(payload []byte) error {
	qf.Facilities = qf.Facilities[:0]
	if len(payload) < queryHeadLen {
		return badRequestf("exchange: query frame of %d bytes is shorter than its %d-byte head", len(payload), queryHeadLen)
	}
	le := binary.LittleEndian
	scenario, flags := payload[16], payload[17]
	if int(scenario) >= len(scenarioNames) {
		return badRequestf("exchange: unknown scenario code %d", scenario)
	}
	if flags&^1 != 0 || le.Uint16(payload[18:]) != 0 || le.Uint32(payload[28:]) != 0 {
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
	qf.QueryParams = QueryParams{Query: q, Workers: req.Workers, TimeoutMS: req.TimeoutMS, Bounds: flags&1 != 0}

	n, stops := uint64(le.Uint32(payload[20:])), uint64(le.Uint32(payload[24:]))
	if err := checkFacilityCount(n); err != nil {
		return err
	}
	columns := queryHeadLen + 8*(n+1)
	if want := columns + 16*stops; uint64(len(payload)) != want {
		return badRequestf("exchange: query frame is %d bytes, %d facilities with %d stops take %d", len(payload), n, stops, want)
	}
	ids := mmap.U32s(payload[queryHeadLen : queryHeadLen+4*n])
	offs := mmap.U32s(payload[queryHeadLen+4*n : columns-4])
	if le.Uint32(payload[columns-4:]) != 0 {
		return badRequestf("exchange: query frame sets reserved bits")
	}
	if offs[0] != 0 || uint64(offs[n]) != stops {
		return badRequestf("exchange: stop offsets run %d..%d, want 0..%d", offs[0], offs[n], stops)
	}
	for i, id := range ids {
		if offs[i+1] < offs[i] {
			return badRequestf("exchange: stop offsets decrease at facility %d", id)
		}
		if err := checkStopCount(id, uint64(offs[i+1]-offs[i])); err != nil {
			return err
		}
	}

	pts := mmap.Points(payload[columns:])
	if uint64(cap(qf.slab)) < n {
		qf.slab = make([]trajcover.Facility, n)
		qf.Facilities = make([]*trajcover.Facility, 0, n)
	}
	qf.slab = qf.slab[:n]
	for i, id := range ids {
		// Capacity stops at the facility's own last stop, as in
		// decodeFacilities.
		own := pts[offs[i]:offs[i+1]:offs[i+1]]
		for j, st := range own {
			if err := checkStop(id, j, st.X, st.Y); err != nil {
				qf.Facilities = qf.Facilities[:0]
				return err
			}
		}
		if qf.slab[i], err = makeFacility(id, own); err != nil {
			qf.Facilities = qf.Facilities[:0]
			return err
		}
		qf.Facilities = append(qf.Facilities, &qf.slab[i])
	}
	return nil
}

// AppendRoundFrame appends the round frame asking for batch — indexes
// into the query frame's facilities.
func AppendRoundFrame(dst []byte, batch []int) []byte {
	dst = appendFrameHeader(dst, FrameRound, 4*len(batch))
	for _, i := range batch {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
	}
	return dst
}

// DecodeRoundFrame appends a round frame's indexes to dst, each checked
// against the n facilities of the exchange.
func DecodeRoundFrame(payload []byte, n int, dst []int) ([]int, error) {
	if len(payload)%4 != 0 || len(payload)/4 > n {
		return dst, badRequestf("exchange: round frame of %d bytes over %d facilities", len(payload), n)
	}
	for ; len(payload) > 0; payload = payload[4:] {
		i := binary.LittleEndian.Uint32(payload)
		if uint64(i) >= uint64(n) {
			return dst, badRequestf("exchange: round names facility %d of %d", i, n)
		}
		dst = append(dst, int(i))
	}
	return dst, nil
}

// AppendFloatsFrame appends a bounds or values frame.
func AppendFloatsFrame(dst []byte, kind FrameKind, vals []float64) []byte {
	return mmap.AppendF64s(appendFrameHeader(dst, kind, 8*len(vals)), vals)
}

// DecodeFloatsFrame views a bounds or values payload as the n numbers it
// must hold (aliased in place when the payload is 8-aligned).
func DecodeFloatsFrame(payload []byte, n int) ([]float64, error) {
	if len(payload) != 8*n {
		return nil, badRequestf("exchange: reply of %d bytes for %d facilities", len(payload), n)
	}
	return mmap.F64s(payload), nil
}

// AppendErrorFrame appends an error frame: the status, whether the client
// should retry after the hint, and the JSON body of the HTTP answer the
// error would otherwise have been.
func AppendErrorFrame(dst []byte, status int, retryAfter bool, body []byte) []byte {
	dst = appendFrameHeader(dst, FrameError, 8+len(body))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(status))
	var flags uint32
	if retryAfter {
		flags = 1
	}
	dst = binary.LittleEndian.AppendUint32(dst, flags)
	return append(dst, body...)
}

// DecodeErrorFrame is AppendErrorFrame's inverse; body aliases payload.
func DecodeErrorFrame(payload []byte) (status int, retryAfter bool, body []byte, err error) {
	if len(payload) < 8 {
		return 0, false, nil, badRequestf("exchange: error frame of %d bytes", len(payload))
	}
	status = int(binary.LittleEndian.Uint32(payload))
	if status < 400 || status > 599 {
		return 0, false, nil, badRequestf("exchange: error frame with status %d", status)
	}
	return status, binary.LittleEndian.Uint32(payload[4:])&1 != 0, payload[8:], nil
}

// exchangeState is the storage one exchange works in, pooled so that a
// steady stream of exchanges allocates none of it: the query frame's
// payload (which the decoded facilities alias for the whole exchange),
// the current round frame's, the reply being built, and the decoded
// forms. It goes back to the pool only after every pool task that could
// touch it has finished.
type exchangeState struct {
	query, in, out []byte
	qf             QueryFrame
	round          []int
	batch          []*trajcover.Facility
}

var exchangeStates = sync.Pool{New: func() any { return new(exchangeState) }}

func (x *exchangeState) release() {
	// Like strictDecoder: storage grown past maxPooledBody is not kept.
	if cap(x.query) <= maxPooledBody && cap(x.in) <= maxPooledBody {
		exchangeStates.Put(x)
	}
}

// handleExchange serves POST /v1/exchange (layout and protocol above).
// This goroutine only moves frames: the bounds pass and every round run
// as worker-pool tasks under the pool's global admission and the
// exchange's one deadline — the query frame's timeout_ms, capped like any
// request's — while the tenant's gate slot and the pinned view are taken
// once and held to the end.
func (s *Server) handleExchange(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathExchange]
	start := time.Now()
	ep.requests.Add(1)
	reject := func(status int, err error) {
		ep.errors.Add(1)
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
	}
	if s.draining.Load() {
		ep.errors.Add(1)
		s.rejectRetryable(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	tid, err := resolveTenant(r, "")
	if err != nil {
		reject(http.StatusBadRequest, err)
		return
	}
	rc := http.NewResponseController(w)
	// HTTP/2 streams are full duplex already and say "not supported".
	if err := rc.EnableFullDuplex(); err != nil && !errors.Is(err, http.ErrNotSupported) {
		reject(http.StatusInternalServerError, err)
		return
	}
	// A frontend that goes quiet must not hold this goroutine — nor, further
	// down, a gate slot and the frame buffers — for ever; the exchange's own
	// deadline tightens this once it is known. (Not every ResponseWriter can
	// set one; the ones that cannot are not sockets.)
	_ = rc.SetReadDeadline(start.Add(s.cfg.MaxTimeout))
	ended := false
	defer func() {
		if !ended {
			leaveEarly(rc, r.Body)
		}
	}()

	x := exchangeStates.Get().(*exchangeState)
	defer x.release()
	kind, payload, err := ReadFrame(r.Body, x.query, s.cfg.MaxBodyBytes)
	x.query = payload
	if err == nil && kind != FrameQuery {
		err = badRequestf("exchange: first frame is kind %d, want the query frame", kind)
	}
	if err == nil {
		err = x.qf.Decode(payload)
	}
	if err != nil {
		status := frameErrorStatus(err)
		if status == 0 { // the body ended inside the frame
			status, err = http.StatusBadRequest, badRequestf("exchange: reading the query frame: %v", err)
		}
		reject(status, err)
		return
	}

	lim := s.limitsFor(tid)
	gate := s.gateOf(tid)
	if ok, reason := gate.Admit(lim); !ok {
		s.rejectQuota(w, ep, tid, reason)
		return
	}
	// Like a stream, an exchange occupies its tenant for as long as it is
	// open, not per task.
	gate.Started()
	defer gate.Finished()
	idx, release, err := s.acquireTenant(tid, false)
	if err != nil {
		reject(acquireStatus(err), err)
		return
	}
	defer release()

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(x.qf.TimeoutMS, lim))
	defer cancel()
	if deadline, ok := ctx.Deadline(); ok {
		_ = rc.SetReadDeadline(deadline)
	}
	view := idx.Pin()

	replied, timed := false, false
	defer func() {
		if timed {
			ep.observe(time.Since(start))
		}
	}()
	// fail ends the exchange with resp: as the HTTP answer while there is
	// still one to give, in band after that.
	fail := func(resp response) {
		if !replied {
			s.writeResponse(w, resp)
			return
		}
		// Not built in x: a task the deadline overtook may still be there.
		if _, err := w.Write(AppendErrorFrame(nil, resp.status, resp.retryAfter, resp.body)); err == nil {
			_ = rc.Flush()
		}
	}
	// step runs one pass on the pool — it leaves its reply frame in x.out —
	// and sends the reply. When the deadline answers before the task has,
	// the frontend hears at once, but x goes nowhere until the task is done
	// with it.
	step := func(run func(context.Context) response) bool {
		t := &task{ctx: ctx, run: run, done: make(chan struct{})}
		resp, admitted := s.runOnPool(ep, t)
		timed = timed || admitted
		if resp.status != http.StatusOK {
			fail(resp)
			if admitted {
				<-t.done
			}
			return false
		}
		if !replied {
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			replied = true
		}
		if _, err := w.Write(x.out); err != nil {
			return false
		}
		// A writer with nothing to flush holds nothing back.
		err := rc.Flush()
		return err == nil || errors.Is(err, http.ErrNotSupported)
	}
	facs := x.qf.Facilities
	floats := func(kind FrameKind, vals []float64, err error) response {
		if err != nil {
			return errResponse(err)
		}
		x.out = AppendFloatsFrame(x.out[:0], kind, vals)
		return response{status: http.StatusOK}
	}

	if x.qf.Bounds {
		ok := step(func(ctx context.Context) response {
			bounds, err := view.UpperBoundsCtx(ctx, facs, x.qf.Query)
			return floats(FrameBounds, bounds, err)
		})
		if !ok {
			return
		}
	}
	values := func(ctx context.Context) response {
		vals, err := view.ServiceValuesCtx(ctx, x.batch, x.qf.Query, x.qf.Workers)
		return floats(FrameValues, vals, err)
	}
	for {
		kind, payload, err := ReadFrame(r.Body, x.in, s.cfg.MaxBodyBytes)
		x.in = payload
		if err == io.EOF {
			ended = true // the frontend has what it needs
			return
		}
		if err == nil && kind != FrameRound {
			err = badRequestf("exchange: frame of kind %d where a round was due", kind)
		}
		if err == nil {
			x.round, err = DecodeRoundFrame(payload, len(facs), x.round[:0])
		}
		if err != nil {
			ep.errors.Add(1)
			switch status := frameErrorStatus(err); {
			case errors.Is(err, os.ErrDeadlineExceeded):
				ep.deadline.Add(1)
				fail(errResponse(context.DeadlineExceeded))
			case status != 0:
				fail(response{status: status, body: mustMarshal(ErrorResponse{Error: err.Error()})})
			}
			return // anything else: the frontend is gone
		}
		x.batch = x.batch[:0]
		for _, i := range x.round {
			x.batch = append(x.batch, facs[i])
		}
		if !step(values) {
			return
		}
	}
}

// leaveEarly is how the handler returns while the frontend has not ended
// the request body: what has been said is flushed — the frontend ends the
// body when it hears an error — and the rest of the body is read off
// here. Left unread, net/http would discard it after the handler returns,
// and on reaching its end restart the connection's background read just
// before reading the next request itself — a panic in its own connection
// loop (go 1.22–1.24). A body that does not end within what net/http
// itself would discard is not a frontend's: the connection is dropped.
func leaveEarly(rc *http.ResponseController, body io.Reader) {
	_ = rc.Flush()
	if _, err := io.CopyN(io.Discard, body, 256<<10); err == nil {
		panic(http.ErrAbortHandler)
	}
}

// frameErrorStatus maps a frame read or decode error to the status the
// JSON path gives its counterpart — 400 for bytes that do not decode, 413
// for more of them than MaxBodyBytes — and 0 for an I/O failure.
func frameErrorStatus(err error) int {
	var bad *badRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &bad):
		return http.StatusBadRequest
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	}
	return 0
}
