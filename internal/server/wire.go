package server

// The JSON wire format of the tqserve front end, and its hardened
// decoder. Every byte that arrives on /v1/* passes through DecodeRequest
// before it can reach the index: the decoder rejects malformed JSON,
// non-finite coordinates, non-positive k, out-of-range sizes, and
// anything else that could panic or wedge a worker — with a 4xx-mapped
// error, never a panic (FuzzDecodeRequest holds it to that).
//
// Numbers cross the wire as JSON float64. Go's encoder emits the
// shortest representation that round-trips, so a facility posted from
// decoded responses reproduces the original coordinates bit-exactly and
// answers stay byte-identical to direct library calls — the property the
// end-to-end tests pin.
//
// Nearly every byte of a query body is coordinates, so those arrays
// (Coords) decode themselves in one pass — count, allocate once,
// strconv.ParseFloat each number — and encoding/json's reflection walks
// only the small envelope around them.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/replog"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Decoder limits. Bodies are already capped by Config.MaxBodyBytes at
// the transport; these bound the decoded shapes so a small body cannot
// expand into a huge allocation or a quadratic validation pass.
const (
	// MaxFacilities bounds the facilities of one query request.
	MaxFacilities = 1 << 16
	// MaxStops bounds the stops of one facility.
	MaxStops = 1 << 14
	// MaxPoints bounds the points of one inserted trajectory.
	MaxPoints = 1 << 16
	// MaxK bounds a top-k request's k.
	MaxK = 1 << 20
	// MaxRequestWorkers caps the per-request worker hint; the effective
	// pool is further normalized by query.ResolveWorkers.
	MaxRequestWorkers = 256
)

// badRequest is a decoder/validation failure, mapped to 400.
type badRequest struct{ msg string }

func (e *badRequest) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequest{msg: fmt.Sprintf(format, args...)}
}

// Coords is a coordinate array on the wire: a JSON array of [x, y]
// pairs. It encodes like the [][2]float64 it is and decodes itself (see
// UnmarshalJSON).
type Coords [][2]float64

// UnmarshalJSON decodes a JSON array of [x, y] pairs in one pass over
// data with one allocation. Every pair must be an array of exactly two
// numbers — a short, long, null or nested pair is an error, where
// encoding/json's fixed-size-array rule would zero-fill or truncate it —
// and each number goes through strconv.ParseFloat exactly as
// encoding/json's own float64 path does, so accepted coordinates are
// bit-identical to that path's and out-of-range literals (1e999) are
// errors. null leaves c untouched, as encoding/json does for a slice.
//
// encoding/json hands this method syntax-checked bytes; other input is
// an error, never a panic.
func (c *Coords) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if string(data[i:]) == "null" {
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return errors.New("want an array of [x, y] pairs")
	}
	// Every '[' past the first opens one pair in a well-formed array, so
	// the count sizes the slice exactly. It is capped at the longest array
	// any request may carry: past that (or on a malformed array, where
	// the count means nothing) the caller is about to reject the result.
	out := make(Coords, 0, min(bytes.Count(data[i+1:], []byte{'['}), MaxPoints))
	i = skipSpace(data, i+1)
	for more := i == len(data) || data[i] != ']'; more; {
		xy, next, err := parsePair(data, i)
		if err != nil {
			return fmt.Errorf("pair %d: %w", len(out), err)
		}
		out = append(out, xy)
		i = skipSpace(data, next)
		if i == len(data) || (data[i] != ',' && data[i] != ']') {
			return fmt.Errorf("want ',' or ']' after pair %d", len(out)-1)
		}
		if more = data[i] == ','; more {
			i = skipSpace(data, i+1)
		}
	}
	if skipSpace(data, i+1) != len(data) {
		return errors.New("trailing data after the array")
	}
	*c = out
	return nil
}

// parsePair parses one "[x, y]" starting at data[i] and returns the
// index just past its ']'.
func parsePair(data []byte, i int) (xy [2]float64, next int, err error) {
	if i == len(data) || data[i] != '[' {
		return xy, i, errors.New("not an [x, y] array")
	}
	i++
	for d := range xy {
		i = skipSpace(data, i)
		start := i
		for i < len(data) && isNumberByte(data[i]) {
			i++
		}
		if xy[d], err = strconv.ParseFloat(string(data[start:i]), 64); err != nil {
			return xy, i, fmt.Errorf("want exactly two numbers: %q is not a float64", data[start:i])
		}
		i = skipSpace(data, i)
		if i == len(data) || data[i] != ",]"[d] {
			return xy, i, errors.New("want exactly two numbers")
		}
		i++
	}
	return xy, i, nil
}

// skipSpace returns the index of the first non-whitespace byte of data
// at or after i (len(data) if there is none).
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// isNumberByte reports whether b can appear in a JSON number. Scanning
// by this set keeps the spellings strconv.ParseFloat accepts beyond
// JSON's (inf, nan, hex floats, digit underscores) out of its argument.
func isNumberByte(b byte) bool {
	return '0' <= b && b <= '9' || b == '-' || b == '+' || b == '.' || b == 'e' || b == 'E'
}

// FacilityJSON is one candidate facility on the wire.
type FacilityJSON struct {
	ID    uint32 `json:"id"`
	Stops Coords `json:"stops"`
}

// FacilitiesJSON is the wire form of a facility list, coordinates
// bit-exact — what a client (or a test, or the bench harness) puts in
// QueryRequest.Facilities to ask about fs.
func FacilitiesJSON(fs []*trajcover.Facility) []FacilityJSON {
	out := make([]FacilityJSON, len(fs))
	for i, f := range fs {
		stops := make(Coords, len(f.Stops))
		for j, st := range f.Stops {
			stops[j] = [2]float64{st.X, st.Y}
		}
		out[i] = FacilityJSON{ID: uint32(f.ID), Stops: stops}
	}
	return out
}

// QueryRequest is the body of /v1/topk and /v1/servicevalues.
type QueryRequest struct {
	Facilities []FacilityJSON `json:"facilities"`
	// K is the number of results (topk only; ignored by servicevalues).
	K int `json:"k,omitempty"`
	// Scenario selects the service semantics: "binary" (default),
	// "pointcount", or "length".
	Scenario string `json:"scenario,omitempty"`
	// Psi is the serving distance threshold ψ (data units, >= 0).
	Psi float64 `json:"psi"`
	// Workers hints the per-request parallelism. 0 (the default) means
	// serial — one worker-pool slot does one request's work, and
	// concurrency comes from the pool itself, so Config.Workers stays
	// the bound on query CPU. Values above 1 let a single request fan
	// out (at most MaxRequestWorkers), trading pool fairness for that
	// request's latency.
	Workers int `json:"workers,omitempty"`
	// TimeoutMS overrides the server's default per-request deadline,
	// capped at Config.MaxTimeout (and the tenant's max_timeout_ms).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tenant names the tenant this query runs against; it must agree
	// with the X-Tenant header when both are set. Empty means the
	// header's tenant, or "default".
	Tenant string `json:"tenant,omitempty"`
}

// InsertRequest is the body of /v1/insert.
type InsertRequest struct {
	ID        uint32 `json:"id"`
	Points    Coords `json:"points"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Tenant names the tenant receiving the write (lazily created on
	// first write); see QueryRequest.Tenant.
	Tenant string `json:"tenant,omitempty"`
}

// DeleteRequest is the body of /v1/delete.
type DeleteRequest struct {
	ID        uint32 `json:"id"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// Tenant names the tenant receiving the write; see
	// QueryRequest.Tenant.
	Tenant string `json:"tenant,omitempty"`
}

// RankedJSON is one facility of a top-k answer on the wire.
type RankedJSON struct {
	ID      uint32  `json:"id"`
	Service float64 `json:"service"`
}

// TopKResponse is the body of a /v1/topk answer.
type TopKResponse struct {
	Results []RankedJSON `json:"results"`
}

// ValuesResponse is the body of a /v1/servicevalues answer, indexed like
// the request's facilities.
type ValuesResponse struct {
	Values []float64 `json:"values"`
}

// ChangesResponse is the body of a /v1/changes answer: the primary's
// replication boot identity, its newest sequence number, and the
// ordered entries past the request's `after` cursor.
type ChangesResponse struct {
	BootID  string         `json:"boot_id"`
	Seq     uint64         `json:"seq"`
	Entries []replog.Entry `json:"entries"`
}

// InsertResponse reports the post-insert logical corpus size.
type InsertResponse struct {
	Len int `json:"len"`
}

// DeleteResponse reports whether the trajectory was present.
type DeleteResponse struct {
	Found bool `json:"found"`
}

// CompactResponse acknowledges a completed fold.
type CompactResponse struct {
	OK bool `json:"ok"`
}

// CheckpointResponse acknowledges a completed WAL checkpoint, reporting
// the post-truncation segment footprint.
type CheckpointResponse struct {
	OK          bool  `json:"ok"`
	WALSegments int   `json:"wal_segments"`
	WALBytes    int64 `json:"wal_bytes"`
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// parseScenario maps the wire name to a Scenario; "" means Binary.
func parseScenario(s string) (trajcover.Scenario, error) {
	switch s {
	case "", "binary":
		return trajcover.Binary, nil
	case "pointcount":
		return trajcover.PointCount, nil
	case "length":
		return trajcover.Length, nil
	}
	return 0, badRequestf("unknown scenario %q (want binary, pointcount, or length)", s)
}

// finite rejects the NaN/Inf coordinates a lenient client (or an
// attacker) could smuggle in; geometry over non-finite values corrupts
// every bound the search prunes by.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// ReadBody reads a request body capped at max bytes (past it the error
// is an *http.MaxBytesError and the connection closes, as
// http.MaxBytesReader arranges). A body that declares its length is read
// into one allocation of exactly that size; only a chunked body pays
// io.ReadAll's growth loop.
func ReadBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, max)
	if n := r.ContentLength; n >= 0 && n <= max {
		body := make([]byte, n)
		if _, err := io.ReadFull(rd, body); err != nil {
			return nil, err
		}
		return body, nil
	}
	return io.ReadAll(rd)
}

// strictDecoder is a json.Decoder over a reader that can be pointed at
// the next body, so the decoder's buffer — which it grows by doubling to
// hold a whole body, ~3x the body in allocations each time — is grown
// once and reused. Bodies are a stream of JSON values to it, which is
// what a Decoder is for.
type strictDecoder struct {
	src bytes.Reader
	dec *json.Decoder
}

var strictDecoders = sync.Pool{New: func() any {
	d := new(strictDecoder)
	d.dec = json.NewDecoder(&d.src)
	d.dec.DisallowUnknownFields()
	return d
}}

// maxPooledBody keeps a decoder that has grown past it out of the pool.
const maxPooledBody = 1 << 20

// unmarshalStrict decodes with unknown fields and trailing data
// rejected: a typoed field ("timeoutms", "worker") must be a loud 400,
// not a silently applied server default.
func unmarshalStrict(data []byte, v any) error {
	d := strictDecoders.Get().(*strictDecoder)
	d.src.Reset(data)
	if err := d.dec.Decode(v); err != nil {
		return badRequestf("bad request body: %v", err)
	}
	if d.dec.More() {
		return badRequestf("bad request body: trailing data after JSON value")
	}
	// Only a decoder that consumed its body whole goes back: one that
	// failed is stuck on its error, and one with bytes left over (More
	// lets a stray '}' or ']' pass) would prepend them to the next body.
	if len(data) <= maxPooledBody && d.src.Len() == 0 && d.dec.Buffered().(*bytes.Reader).Len() == 0 {
		strictDecoders.Put(d)
	}
	return nil
}

// The facility checks every decoder applies — the JSON body's and the
// exchange's query frame's — in this order, with these messages: counts
// first, so nothing is sized from an unchecked number, then each
// coordinate.

func checkFacilityCount(n uint64) error {
	if n > MaxFacilities {
		return badRequestf("too many facilities: %d > %d", n, MaxFacilities)
	}
	return nil
}

func checkStopCount(id uint32, n uint64) error {
	if n == 0 {
		return badRequestf("facility %d has no stops", id)
	}
	if n > MaxStops {
		return badRequestf("facility %d has too many stops: %d > %d", id, n, MaxStops)
	}
	return nil
}

func checkStop(id uint32, j int, x, y float64) error {
	if !finite(x) || !finite(y) {
		return badRequestf("facility %d stop %d is not finite", id, j)
	}
	return nil
}

func makeFacility(id uint32, stops []trajcover.Point) (trajcover.Facility, error) {
	f, err := trajectory.MakeFacility(trajcover.ID(id), stops)
	if err != nil {
		return f, badRequestf("facility %d: %v", id, err)
	}
	return f, nil
}

// decodeFacilities validates the wire facilities and builds the library's
// form of them in three allocations whatever their number: one flat
// arena holding every stop, one slab of Facility values, and the
// pointers into it the query API takes.
func decodeFacilities(fjs []FacilityJSON) ([]*trajcover.Facility, error) {
	if err := checkFacilityCount(uint64(len(fjs))); err != nil {
		return nil, err
	}
	total := 0
	for _, fj := range fjs {
		if err := checkStopCount(fj.ID, uint64(len(fj.Stops))); err != nil {
			return nil, err
		}
		total += len(fj.Stops)
	}
	arena := make([]trajcover.Point, 0, total)
	slab := make([]trajcover.Facility, len(fjs))
	out := make([]*trajcover.Facility, len(fjs))
	for i, fj := range fjs {
		start := len(arena)
		for j, st := range fj.Stops {
			if err := checkStop(fj.ID, j, st[0], st[1]); err != nil {
				return nil, err
			}
			arena = append(arena, trajcover.Pt(st[0], st[1]))
		}
		// Capacity stops at the facility's own last stop: an append to
		// Stops reallocates instead of overwriting its neighbour's.
		f, err := makeFacility(fj.ID, arena[start:len(arena):len(arena)])
		if err != nil {
			return nil, err
		}
		slab[i] = f
		out[i] = &slab[i]
	}
	return out, nil
}

// validate checks and normalizes everything in a query but its
// facilities — what the JSON body and the exchange's query frame share.
func (req *QueryRequest) validate(needK bool) (trajcover.Query, error) {
	if needK && req.K <= 0 {
		return trajcover.Query{}, badRequestf("k must be >= 1, got %d", req.K)
	}
	if req.K > MaxK {
		return trajcover.Query{}, badRequestf("k too large: %d > %d", req.K, MaxK)
	}
	sc, err := parseScenario(req.Scenario)
	if err != nil {
		return trajcover.Query{}, err
	}
	if !finite(req.Psi) || req.Psi < 0 {
		return trajcover.Query{}, badRequestf("psi must be finite and >= 0, got %v", req.Psi)
	}
	// 0 or negative normalizes to 1, NOT to the library's GOMAXPROCS
	// default: a request must not widen past what it asked for, or the
	// bounded pool stops bounding CPU (admission control assumes one
	// slot ≈ one goroutine's worth of query work).
	if req.Workers < 1 {
		req.Workers = 1
	}
	if req.Workers > MaxRequestWorkers {
		req.Workers = MaxRequestWorkers
	}
	if req.TimeoutMS < 0 {
		return trajcover.Query{}, badRequestf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	return trajcover.Query{Scenario: sc, Psi: req.Psi}, nil
}

// DecodeQueryRequest parses and validates a /v1/topk (needK) or
// /v1/servicevalues body. Any error is a 4xx: the decoder never panics
// and never lets a non-finite, oversized, or non-positive-k request
// through to the index.
func DecodeQueryRequest(data []byte, needK bool) (*QueryRequest, []*trajcover.Facility, trajcover.Query, error) {
	var req QueryRequest
	if err := unmarshalStrict(data, &req); err != nil {
		return nil, nil, trajcover.Query{}, err
	}
	q, err := req.validate(needK)
	if err != nil {
		return nil, nil, trajcover.Query{}, err
	}
	facs, err := decodeFacilities(req.Facilities)
	if err != nil {
		return nil, nil, trajcover.Query{}, err
	}
	return &req, facs, q, nil
}

// DecodeInsertRequest parses and validates a /v1/insert body.
func DecodeInsertRequest(data []byte) (*InsertRequest, *trajcover.Trajectory, error) {
	var req InsertRequest
	if err := unmarshalStrict(data, &req); err != nil {
		return nil, nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, nil, badRequestf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	if len(req.Points) > MaxPoints {
		return nil, nil, badRequestf("too many points: %d > %d", len(req.Points), MaxPoints)
	}
	pts := make([]trajcover.Point, len(req.Points))
	for i, p := range req.Points {
		if !finite(p[0]) || !finite(p[1]) {
			return nil, nil, badRequestf("point %d is not finite", i)
		}
		pts[i] = trajcover.Pt(p[0], p[1])
	}
	u, err := trajcover.NewTrajectory(trajcover.ID(req.ID), pts)
	if err != nil {
		return nil, nil, badRequestf("trajectory %d: %v", req.ID, err)
	}
	return &req, u, nil
}

// DecodeDeleteRequest parses and validates a /v1/delete body.
func DecodeDeleteRequest(data []byte) (*DeleteRequest, error) {
	var req DeleteRequest
	if err := unmarshalStrict(data, &req); err != nil {
		return nil, err
	}
	if req.TimeoutMS < 0 {
		return nil, badRequestf("timeout_ms must be >= 0, got %d", req.TimeoutMS)
	}
	return &req, nil
}

// CanonicalQueryHash digests exactly the answer-affecting fields of a
// query request — the endpoint, scenario, ψ, k (0 for endpoints that
// ignore it), and the facilities' IDs and stop coordinates, all
// bit-exact — and nothing operational: workers and timeout_ms change
// how fast an answer arrives, never what it is, so requests differing
// only there share one cache line. The tenant and the index version
// join the digest in the cache key, not here.
func CanonicalQueryHash(endpoint string, req *QueryRequest, k int, q trajcover.Query) [32]byte {
	h := sha256.New()
	var buf [8]byte
	wr := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	io.WriteString(h, endpoint)
	wr(uint64(q.Scenario))
	wr(math.Float64bits(q.Psi))
	wr(uint64(k))
	wr(uint64(len(req.Facilities)))
	for _, f := range req.Facilities {
		wr(uint64(f.ID))
		wr(uint64(len(f.Stops)))
		for _, st := range f.Stops {
			wr(math.Float64bits(st[0]))
			wr(math.Float64bits(st[1]))
		}
	}
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// MarshalTopKResponse encodes a top-k answer exactly as the handler
// does — exported so tests (and clients embedded in the bench harness)
// can assert byte identity against direct library calls.
func MarshalTopKResponse(results []trajcover.Ranked) []byte {
	out := TopKResponse{Results: make([]RankedJSON, len(results))}
	for i, r := range results {
		out.Results[i] = RankedJSON{ID: uint32(r.Facility.ID), Service: r.Service}
	}
	return mustMarshal(out)
}

// MarshalValuesResponse encodes a servicevalues answer exactly as the
// handler does.
func MarshalValuesResponse(values []float64) []byte {
	return mustMarshal(ValuesResponse{Values: values})
}

// StreamChunk is one NDJSON line of a streamed servicevalues
// response: Values[i] is the service value of facility Start+i.
// Chunks arrive in facility order.
type StreamChunk struct {
	Start  int       `json:"start"`
	Values []float64 `json:"values"`
}

// StreamTrailer is the final NDJSON line of a complete stream: Count
// is the total number of facilities answered. Clients must treat a
// stream that ends without a trailer (or with an {"error": ...} line)
// as truncated.
type StreamTrailer struct {
	Done  bool `json:"done"`
	Count int  `json:"count"`
}

// MarshalStreamChunk encodes one stream line, newline-terminated,
// exactly as the streaming handler does.
func MarshalStreamChunk(start int, values []float64) []byte {
	return append(mustMarshal(StreamChunk{Start: start, Values: values}), '\n')
}

// mustMarshal encodes values whose shapes cannot fail (no NaN floats
// reach a response: inputs were validated finite and service sums of
// finite inputs stay finite).
func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: marshal response: %v", err))
	}
	return b
}
