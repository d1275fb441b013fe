package server

// The exchange: the internal frontend↔backend leg of a distributed read.
//
// A scatter-gather frontend (internal/dist) needs one thing of a shard
// group: every facility's exact service value over the group's corpus.
// POST /v1/exchange is that question as an ordinary request — the body is
// one query frame, whose facilities this side aliases in place, the 200
// answer one values frame — and since the whole answer is one
// ServiceValuesCtx call, every number a backend contributes to one
// /v1/topk comes from one epoch capture, one acknowledged prefix of its
// write history. Anything else is the HTTP error every endpoint gives:
// status, JSON body, Retry-After.
//
// Frames are little-endian, length-prefixed: an 8-byte header — payload
// length (u32), kind (u8), three zero bytes — then the payload.
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
//
// With the 8-byte frame header and the 32-byte head, the coordinate
// column starts 8-aligned in any buffer that is, so mmap.Points aliases
// it; a misaligned buffer (or a big-endian build) takes mmap's copying
// fallback and decodes to the same facilities.
//
// This is not a public API: the frame layout may change with the
// frontend.

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net/http"
	"sync"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// FrameKind names what a frame carries.
type FrameKind uint8

// The frame kinds; see the layout above.
const (
	FrameQuery FrameKind = iota + 1
	FrameValues
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
	if kind < FrameQuery || kind > FrameValues || hdr[5]|hdr[6]|hdr[7] != 0 {
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
	dst = appendFrameHeader(dst, FrameQuery, QueryFrameLen(t)-FrameHeaderLen)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(p.Query.Psi))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(min(max(p.TimeoutMS, 0), math.MaxUint32)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(max(p.Workers, 0)))
	dst = append(dst, byte(p.Query.Scenario), 0, 0, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(t.TotalStops()))
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	for i := range n {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(t.ID(i)))
	}
	off := uint32(0)
	for i := range n {
		dst = binary.LittleEndian.AppendUint32(dst, off)
		off += uint32(len(t.Stops(i)))
	}
	dst = binary.LittleEndian.AppendUint32(dst, off)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	for i := range n {
		dst = mmap.AppendPoints(dst, t.Stops(i))
	}
	return dst
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
		mmap.U32s[trajectory.ID](payload[queryHeadLen:queryHeadLen+4*n]),
		mmap.U32s[uint32](payload[queryHeadLen+4*n:columns-4]),
		mmap.Points(payload[columns:]))
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

// AppendFloatsFrame appends the values frame holding vals.
func AppendFloatsFrame(dst []byte, vals []float64) []byte {
	return mmap.AppendF64s(appendFrameHeader(dst, FrameValues, 8*len(vals)), vals)
}

// DecodeFloatsFrame reads an exchange's whole reply from r: one values
// frame of exactly n numbers and nothing behind it. A reply of any other
// shape — another kind, another count, bytes left over, a second frame —
// is an error, never an answer.
func DecodeFloatsFrame(r io.Reader, n int) ([]float64, error) {
	kind, payload, err := ReadFrame(r, nil, 8*int64(n))
	switch {
	case err == io.EOF:
		return nil, io.ErrUnexpectedEOF
	case err != nil:
		return nil, err
	case kind != FrameValues:
		return nil, badRequestf("exchange: reply frame of kind %d, want the values frame", kind)
	case len(payload) != 8*n:
		return nil, badRequestf("exchange: reply of %d bytes for %d facilities", len(payload), n)
	}
	if m, _ := io.ReadFull(r, make([]byte, 1)); m > 0 {
		return nil, badRequestf("exchange: bytes after the values frame")
	}
	return mmap.F64s(payload), nil
}

// exchangeState is the storage one exchange works in, pooled so that a
// steady stream of exchanges allocates none of it: the query frame's
// payload, which the decoded facilities alias, the decoded form, and the
// reply frame. The handler gives it back once the reply is written.
type exchangeState struct {
	query []byte
	qf    QueryFrame
	tail  [1]byte
	reply []byte
}

var exchangeStates = sync.Pool{New: func() any { return new(exchangeState) }}

func (x *exchangeState) release() {
	// Like strictDecoder: storage grown past maxPooledBody is not kept.
	if cap(x.query)+cap(x.reply) <= maxPooledBody {
		exchangeStates.Put(x)
	}
}

// read takes an exchange's request body — one query frame and nothing
// behind it — into x. Every failure is a 400 but a frame over max (413).
func (x *exchangeState) read(body io.Reader, max int64) error {
	kind, payload, err := ReadFrame(body, x.query, max)
	x.query = payload
	var bad *badRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &bad), errors.As(err, &tooBig):
		return err
	case err != nil: // the body ended inside the frame, or before it
		return badRequestf("exchange: reading the query frame: %v", err)
	case kind != FrameQuery:
		return badRequestf("exchange: frame of kind %d, want the query frame", kind)
	}
	if err := x.qf.Decode(payload); err != nil {
		return err
	}
	if n, _ := io.ReadFull(body, x.tail[:]); n > 0 {
		return badRequestf("exchange: bytes after the query frame")
	}
	return nil
}

// run answers the decoded exchange: every facility's value over the
// tenant's index, as one values frame built in x.
func (x *exchangeState) run(ctx context.Context, idx *trajcover.Index) response {
	vals, err := idx.ServiceValuesCtx(ctx, x.qf.Facilities, x.qf.Query, x.qf.Workers)
	if err != nil {
		return errResponse(err)
	}
	x.reply = AppendFloatsFrame(x.reply[:0], vals)
	return response{status: http.StatusOK, ctype: octetContentType, body: x.reply}
}

// handleExchange serves POST /v1/exchange (layout above): a read like
// /v1/servicevalues — the tenant's gate, slot admission, the query
// frame's timeout_ms as the deadline, capped like any request's — with
// its body read into pooled storage and no result cache in front.
func (s *Server) handleExchange(w http.ResponseWriter, r *http.Request) {
	ep := s.stats[PathExchange]
	if s.rejectDraining(w, ep) {
		return
	}
	x := exchangeStates.Get().(*exchangeState)
	defer x.release()
	tid, err := resolveTenant(r, "")
	if err == nil {
		err = checkDeclaredLength(r, s.cfg.MaxBodyBytes)
	}
	if err == nil {
		err = x.read(r.Body, s.cfg.MaxBodyBytes)
	}
	if err != nil {
		s.rejectBody(w, ep, err)
		return
	}
	s.executeTenant(w, r, ep, tid, false, x.qf.TimeoutMS, nil, x.run)
}
