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
// Nearly every byte of a query body is facilities, so the facility list
// (FacilityList) decodes itself in one pass — count, allocate the columns
// once, strconv.ParseFloat each number into one stop arena — into a
// trajectory.FacilityTable, the form the exchange's query frame has too,
// and encoding/json's reflection walks only the small envelope around it.
// An inserted trajectory's points (Coords) decode the same way.

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
	"unsafe"

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
// data with one allocation (see appendPairs). null leaves c untouched.
//
// encoding/json hands this method syntax-checked bytes; other input is
// an error, never a panic.
func (c *Coords) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if string(data[i:]) == "null" {
		return nil
	}
	// Every '[' but the array's own opens one pair in a well-formed array,
	// so the count sizes the slice. It is capped at the longest array any
	// request may carry: past that (or on a malformed array, where the
	// count means nothing) the caller is about to reject the result.
	pts, next, err := appendPairs(make([]trajcover.Point, 0, min(bytes.Count(data, []byte{'['}), MaxPoints)), data, i)
	if err != nil {
		return err
	}
	if skipSpace(data, next) != len(data) {
		return errors.New("trailing data after the array")
	}
	*c = coordsOf(pts)
	return nil
}

// coordsOf views points as wire coordinates, sharing their memory: a
// Point is two float64s, X then Y, laid out exactly as a [2]float64 is.
func coordsOf(pts []trajcover.Point) Coords {
	return unsafe.Slice((*[2]float64)(unsafe.Pointer(unsafe.SliceData(pts))), len(pts))
}

// appendPairs parses the JSON array of [x, y] pairs at data[i], appends
// each pair to dst, and returns dst and the index just past the array.
// Every pair must be an array of exactly two numbers — a short, long, null
// or nested pair is an error, where encoding/json's fixed-size-array rule
// would zero-fill or truncate it — and each number goes through
// strconv.ParseFloat exactly as encoding/json's own float64 path does, so
// accepted coordinates are bit-identical to that path's and out-of-range
// literals (1e999) are errors.
func appendPairs(dst []trajcover.Point, data []byte, i int) ([]trajcover.Point, int, error) {
	if i == len(data) || data[i] != '[' {
		return dst, i, errors.New("want an array of [x, y] pairs")
	}
	first := len(dst)
	i = skipSpace(data, i+1)
	for more := i == len(data) || data[i] != ']'; more; {
		xy, next, err := parsePair(data, i)
		if err != nil {
			return dst, i, fmt.Errorf("pair %d: %w", len(dst)-first, err)
		}
		dst = append(dst, trajcover.Pt(xy[0], xy[1]))
		i = skipSpace(data, next)
		if i == len(data) || (data[i] != ',' && data[i] != ']') {
			return dst, i, fmt.Errorf("want ',' or ']' after pair %d", len(dst)-first-1)
		}
		if more = data[i] == ','; more {
			i = skipSpace(data, i+1)
		}
	}
	return dst, i + 1, nil
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

// FacilityList is a query's facilities on the wire: a JSON array of
// {"id": …, "stops": […]} objects. It encodes like the []FacilityJSON it
// is and decodes itself (see UnmarshalJSON).
type FacilityList []FacilityJSON

// UnmarshalJSON decodes a JSON array of facilities in one pass over data,
// in a constant number of allocations whatever its length (up to
// MaxPoints stops in all): every stop goes through appendPairs into one
// arena, which each facility's Stops aliases. A facility is an object whose keys are "id" (a uint32 or null)
// and "stops" (as Coords, or null), each spelled exactly and given at most
// once; a missing key, or a null facility, reads as the zero value.
// encoding/json would also take a key in another case, escaped, or
// repeated (the last one winning): each of those is an error here, naming
// the key. null sets l to nil, as encoding/json does for a slice.
//
// encoding/json hands this method syntax-checked bytes; other input is
// an error, never a panic.
func (l *FacilityList) UnmarshalJSON(data []byte) error {
	var b facilityBatch
	if err := b.UnmarshalJSON(data); err != nil {
		return err
	}
	*l = b.list
	return nil
}

// facilityBatch is a decoded facility list with the table its stops
// alias: what a query body's "facilities" decode into. spare is the
// storage of the last decode's columns, which the next decode into the
// same batch reuses when it is large enough (QueryBuffer).
type facilityBatch struct {
	list  FacilityList
	table trajectory.FacilityTable
	spare batchColumns
}

type batchColumns struct {
	list  FacilityList
	ids   []trajectory.ID
	off   []uint32
	stops []trajcover.Point
}

// reuse returns s emptied when it has room for n, else a new slice that
// has.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// UnmarshalJSON is FacilityList's, keeping the table.
func (b *facilityBatch) UnmarshalJSON(data []byte) error {
	i := skipSpace(data, 0)
	if string(data[i:]) == "null" {
		b.list, b.table = nil, trajectory.FacilityTable{}
		return nil
	}
	if i == len(data) || data[i] != '[' {
		return errors.New("want an array of facilities")
	}
	// Every facility but a null one opens with a '{', and every stop with a
	// '[', so the counts size the columns in one allocation each. A count
	// is only a size: the columns grow past one that null facilities beat,
	// and the Stops views are taken once the arena is whole. The caps keep
	// a hostile body's brackets from buying more than the decoders of
	// single arrays allow (Coords) before a parse error ends it.
	objects := min(bytes.Count(data, []byte{'{'}), MaxFacilities)
	list := reuse(b.spare.list, objects)
	ids := reuse(b.spare.ids, objects)
	off := append(reuse(b.spare.off, objects+1), 0)
	stops := reuse(b.spare.stops, min(bytes.Count(data, []byte{'['}), MaxPoints))
	i = skipSpace(data, i+1)
	for more := i == len(data) || data[i] != ']'; more; {
		var id uint32
		var err error
		if id, stops, i, err = parseFacility(data, i, stops); err != nil {
			return fmt.Errorf("facilities[%d]: %w", len(list), err)
		}
		list = append(list, FacilityJSON{ID: id})
		ids = append(ids, trajectory.ID(id))
		off = append(off, uint32(len(stops)))
		i = skipSpace(data, i)
		if i == len(data) || (data[i] != ',' && data[i] != ']') {
			return fmt.Errorf("want ',' or ']' after facilities[%d]", len(list)-1)
		}
		if more = data[i] == ','; more {
			i = skipSpace(data, i+1)
		}
	}
	if skipSpace(data, i+1) != len(data) {
		return errors.New("trailing data after the array")
	}
	t, err := trajectory.NewFacilityTable(ids, off, stops)
	if err != nil {
		return err
	}
	for f := range list {
		list[f].Stops = coordsOf(t.Stops(f))
	}
	b.list, b.table, b.spare = list, t, batchColumns{list, ids, off, stops}
	return nil
}

// parseFacility parses the facility object (or null) at data[i], appends
// its stops to stops, and returns its ID, stops and the index just past
// the object.
func parseFacility(data []byte, i int, stops []trajcover.Point) (uint32, []trajcover.Point, int, error) {
	if isNull(data, i) {
		return 0, stops, i + 4, nil
	}
	if i == len(data) || data[i] != '{' {
		return 0, stops, i, errors.New("want a facility object")
	}
	var id uint32
	var haveID, haveStops bool
	i = skipSpace(data, i+1)
	for more := i == len(data) || data[i] != '}'; more; {
		key, next, err := parseKey(data, i)
		if err != nil {
			return 0, stops, i, err
		}
		if i = skipSpace(data, next); i == len(data) || data[i] != ':' {
			return 0, stops, i, fmt.Errorf("want ':' after key %q", key)
		}
		i = skipSpace(data, i+1)
		switch k := string(key); {
		case k == "id" && !haveID:
			haveID = true
			id, i, err = parseID(data, i)
		case k == "stops" && !haveStops:
			haveStops = true
			if isNull(data, i) {
				i += 4
			} else {
				stops, i, err = appendPairs(stops, data, i)
			}
		case k == "id" || k == "stops":
			err = fmt.Errorf("key %q given twice", key)
		default:
			err = fmt.Errorf(`unknown key %q (a facility's keys are "id" and "stops", spelled exactly)`, key)
		}
		if err != nil {
			return 0, stops, i, err
		}
		if i = skipSpace(data, i); i == len(data) || (data[i] != ',' && data[i] != '}') {
			return 0, stops, i, fmt.Errorf("want ',' or '}' after key %q", key)
		}
		if more = data[i] == ','; more {
			i = skipSpace(data, i+1)
		}
	}
	return id, stops, i + 1, nil
}

// parseKey returns the bytes of the object key at data[i] as they are
// spelled, escapes and all, and the index just past its closing quote.
func parseKey(data []byte, i int) ([]byte, int, error) {
	if i == len(data) || data[i] != '"' {
		return nil, i, errors.New("want a key")
	}
	for j := i + 1; j < len(data); j++ {
		switch data[j] {
		case '\\':
			j++
		case '"':
			return data[i+1 : j], j + 1, nil
		}
	}
	return nil, i, errors.New("unterminated key")
}

// parseID parses the facility ID at data[i]: null (zero, as encoding/json
// leaves it) or a number strconv.ParseUint takes in base 10 and 32 bits —
// exactly the literals encoding/json accepts for a uint32.
func parseID(data []byte, i int) (uint32, int, error) {
	if isNull(data, i) {
		return 0, i + 4, nil
	}
	start := i
	for i < len(data) && isNumberByte(data[i]) {
		i++
	}
	id, err := strconv.ParseUint(string(data[start:i]), 10, 32)
	if err != nil {
		return 0, i, fmt.Errorf("id %q is not a uint32", data[start:i])
	}
	return uint32(id), i, nil
}

// isNull reports whether the value at data[i] is the literal null.
func isNull(data []byte, i int) bool {
	return len(data)-i >= 4 && string(data[i:i+4]) == "null"
}

// FacilitiesJSON is the wire form of a facility list, coordinates
// bit-exact — what a client (or a test, or the bench harness) puts in
// QueryRequest.Facilities to ask about fs.
func FacilitiesJSON(fs []*trajcover.Facility) FacilityList {
	out := make(FacilityList, len(fs))
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
	Facilities FacilityList `json:"facilities"`
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

// ReadBody reads a request body capped at max bytes. A body that
// declares a longer length is refused before a byte of it is read, with
// an error that names both lengths and unwraps to an
// *http.MaxBytesError; the caller's 413 should close the connection
// (CloseAfterAnswer), since the body is left unread. A body that declares
// its length is read into one allocation of exactly that size; only a
// chunked body pays http.MaxBytesReader and a growth loop (past max the
// error is an *http.MaxBytesError and the connection closes, as
// MaxBytesReader arranges).
func ReadBody(w http.ResponseWriter, r *http.Request, max int64) ([]byte, error) {
	return readBody(w, r, max, nil)
}

// readBody is ReadBody reading into buf's storage when it has room.
func readBody(w http.ResponseWriter, r *http.Request, max int64, buf []byte) ([]byte, error) {
	if err := checkDeclaredLength(r, max); err != nil {
		return buf[:0], err
	}
	if n := r.ContentLength; n >= 0 {
		// net/http's body reader ends at the declared length.
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		_, err := io.ReadFull(r.Body, buf)
		return buf, err
	}
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(http.MaxBytesReader(w, r.Body, max))
	return b.Bytes(), err
}

// checkDeclaredLength refuses a request whose declared body length is
// over max, without reading any of it.
func checkDeclaredLength(r *http.Request, max int64) error {
	if r.ContentLength > max {
		return fmt.Errorf("request body of %d bytes is over the %d-byte limit: %w", r.ContentLength, max, &http.MaxBytesError{Limit: max})
	}
	return nil
}

// CloseAfterAnswer asks net/http to close the connection once the answer
// is written — what a 413 needs when the refused body was left unread.
func CloseAfterAnswer(w http.ResponseWriter) { w.Header()["Connection"] = connectionClose }

// connectionClose is the Connection header value CloseAfterAnswer assigns.
var connectionClose = []string{"close"}

// QueryBuffer is the storage one /v1/topk or /v1/servicevalues request is
// read, decoded and answered in — its body, the decoded request and
// facility columns, the query API's facilities, and the answer's bytes —
// pooled, so that a steady stream of reads allocates none of it once the
// pool is warm. What it hands out is valid until Release.
type QueryBuffer struct {
	// Answer is storage for the answer's bytes: append to Answer[:0] and
	// keep the result here, so the next request reuses it.
	Answer []byte
	// Frame is the same for the query frame a distributed read sends
	// every shard group.
	Frame []byte

	body []byte
	qb   queryBody
	slab []trajcover.Facility
	ptrs []*trajcover.Facility
}

var queryBuffers = sync.Pool{New: func() any { return new(QueryBuffer) }}

// AcquireQueryBuffer takes a QueryBuffer from the pool.
func AcquireQueryBuffer() *QueryBuffer { return queryBuffers.Get().(*QueryBuffer) }

// Release gives b back to the pool; nothing it handed out may be used
// afterwards. Like strictDecoder, a buffer grown past maxPooledBody is
// left to the collector instead.
func (b *QueryBuffer) Release() {
	c := &b.qb.Facilities.spare
	size := cap(b.body) + cap(b.Answer) + cap(b.Frame) +
		cap(c.list)*int(unsafe.Sizeof(FacilityJSON{})) + 4*cap(c.ids) + 4*cap(c.off) + 16*cap(c.stops) +
		cap(b.slab)*int(unsafe.Sizeof(trajcover.Facility{})) + 8*cap(b.ptrs)
	if size <= maxPooledBody {
		queryBuffers.Put(b)
	}
}

// ReadBody is the package's ReadBody into b's storage.
func (b *QueryBuffer) ReadBody(w http.ResponseWriter, r *http.Request, max int64) (err error) {
	b.body, err = readBody(w, r, max, b.body)
	return err
}

// Body returns the body ReadBody read.
func (b *QueryBuffer) Body() []byte { return b.body }

// Decode parses and validates a query body, usually Body — the checks
// and messages of DecodeQueryRequest — into b's storage: the request,
// and the table its facilities and stops alias.
func (b *QueryBuffer) Decode(data []byte, needK bool) (*QueryRequest, trajectory.FacilityTable, trajcover.Query, error) {
	return b.qb.decode(data, needK)
}

// facilities builds the query API's form of the decoded table in b's
// storage.
func (b *QueryBuffer) facilities() ([]*trajcover.Facility, error) {
	t := b.qb.Facilities.table
	if cap(b.slab) < t.Len() {
		b.slab, b.ptrs = make([]trajcover.Facility, t.Len()), make([]*trajcover.Facility, t.Len())
	}
	facs, err := t.Facilities(b.slab, b.ptrs)
	if err != nil { // a stopless facility, refused by Decode
		return nil, badRequestf("%v", err)
	}
	return facs, nil
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

func checkFacilityCount(n uint64) error {
	if n > MaxFacilities {
		return badRequestf("too many facilities: %d > %d", n, MaxFacilities)
	}
	return nil
}

// checkFacilities runs the facility checks every decoder applies — the
// JSON body's and the exchange's query frame's — over a decoded batch, in
// this order, with these messages: the count, then every facility's stop
// count, then every stop.
func checkFacilities(t trajectory.FacilityTable) error {
	if err := checkFacilityCount(uint64(t.Len())); err != nil {
		return err
	}
	for i := range t.Len() {
		switch n := len(t.Stops(i)); {
		case n == 0:
			return badRequestf("facility %d has no stops", t.ID(i))
		case n > MaxStops:
			return badRequestf("facility %d has too many stops: %d > %d", t.ID(i), n, MaxStops)
		}
	}
	for i := range t.Len() {
		for j, st := range t.Stops(i) {
			if !finite(st.X) || !finite(st.Y) {
				return badRequestf("facility %d stop %d is not finite", t.ID(i), j)
			}
		}
	}
	return nil
}

// facilities runs checkFacilities, then builds the query API's form of
// the batch, in slab and ptrs when they have room for it (FacilityTable's
// Facilities).
func facilities(t trajectory.FacilityTable, slab []trajcover.Facility, ptrs []*trajcover.Facility) ([]*trajcover.Facility, error) {
	if err := checkFacilities(t); err != nil {
		return nil, err
	}
	facs, err := t.Facilities(slab, ptrs)
	if err != nil { // a stopless facility, refused above
		return nil, badRequestf("%v", err)
	}
	return facs, nil
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
	var b QueryBuffer
	req, _, q, err := b.Decode(data, needK)
	if err != nil {
		return nil, nil, trajcover.Query{}, err
	}
	facs, err := b.facilities()
	if err != nil {
		return nil, nil, trajcover.Query{}, err
	}
	return req, facs, q, nil
}

// queryBody is what a query body decodes into: a QueryRequest whose
// facilities land in a facilityBatch (the outer field hides the embedded
// one from encoding/json), so the table the list aliases is kept.
type queryBody struct {
	QueryRequest
	Facilities facilityBatch `json:"facilities"`
}

// decode parses and validates data into qb, reusing the storage of its
// last decode, and returns the request and the table its facilities and
// stops alias.
func (qb *queryBody) decode(data []byte, needK bool) (*QueryRequest, trajectory.FacilityTable, trajcover.Query, error) {
	// Fields the body leaves out must read as zero, not as the last
	// decode's values.
	qb.QueryRequest = QueryRequest{}
	qb.Facilities.list, qb.Facilities.table = nil, trajectory.FacilityTable{}
	if err := unmarshalStrict(data, qb); err != nil {
		return nil, trajectory.FacilityTable{}, trajcover.Query{}, err
	}
	req, t := &qb.QueryRequest, qb.Facilities.table
	req.Facilities = qb.Facilities.list
	q, err := req.validate(needK)
	if err == nil {
		err = checkFacilities(t)
	}
	if err != nil {
		return nil, trajectory.FacilityTable{}, trajcover.Query{}, err
	}
	return req, t, q, nil
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
	return AppendTopKResponse(make([]byte, 0, 16+48*len(results)), results)
}

// The answers of the two read endpoints are encoded by hand, appended to
// the caller's storage: byte for byte what encoding/json makes of a
// TopKResponse or a ValuesResponse (FuzzResponseEncoding holds them to
// it), without its reflection and its buffer copy.

// AppendTopKResponse appends the TopKResponse for results to dst. Its
// results are an array even when there are none, never null.
func AppendTopKResponse(dst []byte, results []trajcover.Ranked) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range results {
		dst = appendRanked(dst, i, uint32(r.Facility.ID), r.Service)
	}
	return append(dst, "]}"...)
}

// AppendRankedResponse appends the TopKResponse whose results are
// ranked to dst, an array even when empty.
func AppendRankedResponse(dst []byte, ranked []RankedJSON) []byte {
	dst = append(dst, `{"results":[`...)
	for i, r := range ranked {
		dst = appendRanked(dst, i, r.ID, r.Service)
	}
	return append(dst, "]}"...)
}

// AppendValuesResponse appends the ValuesResponse for values to dst; a
// nil slice is null, as encoding/json writes it.
func AppendValuesResponse(dst []byte, values []float64) []byte {
	if values == nil {
		return append(dst, `{"values":null}`...)
	}
	dst = append(dst, `{"values":[`...)
	for i, v := range values {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendFloat(dst, v)
	}
	return append(dst, "]}"...)
}

// appendRanked appends results[i] of a TopKResponse.
func appendRanked(dst []byte, i int, id uint32, service float64) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, `{"id":`...)
	dst = strconv.AppendUint(dst, uint64(id), 10)
	dst = append(dst, `,"service":`...)
	dst = appendFloat(dst, service)
	return append(dst, '}')
}

// appendFloat appends v as encoding/json writes a float64: the shortest
// representation that round-trips, in 'f' notation unless v is below
// 1e-6 or from 1e21 in magnitude, where it is 'e' notation with a
// negative exponent's leading zero dropped. A non-finite v panics, as
// mustMarshal does: no answer holds one.
func appendFloat(dst []byte, v float64) []byte {
	if !finite(v) {
		panic(fmt.Sprintf("server: marshal response: unsupported value %v", v))
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		// e-07 is e-7.
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
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
