package server

// Fuzzing the request decoders: whatever bytes arrive on /v1/*, the
// decoder must either return a 4xx-mapped error or a fully validated
// request — never panic, never let non-finite geometry, non-positive k,
// or oversized shapes through (mirrors snapshot_fuzz_test.go's contract
// for the snapshot readers).
//
// The query and insert decoders are also held to a reference: the
// all-reflection decode they replaced (refDecode*, below — [][2]float64
// through encoding/json, one NewFacility per facility). Whatever the
// one-pass decoder accepts the reference accepts too, and the two agree
// bit for bit on the request, the facilities and the canonical hash.
// The converse is deliberately false: the reference repairs a pair that
// is not exactly two numbers ([1] reads as (1, 0)); the decoder rejects
// it.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/tenant"
)

type refFacilityJSON struct {
	ID    uint32       `json:"id"`
	Stops [][2]float64 `json:"stops"`
}

type refQueryRequest struct {
	Facilities []refFacilityJSON `json:"facilities"`
	K          int               `json:"k,omitempty"`
	Scenario   string            `json:"scenario,omitempty"`
	Psi        float64           `json:"psi"`
	Workers    int               `json:"workers,omitempty"`
	TimeoutMS  int64             `json:"timeout_ms,omitempty"`
	Tenant     string            `json:"tenant,omitempty"`
}

type refInsertRequest struct {
	ID        uint32       `json:"id"`
	Points    [][2]float64 `json:"points"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
	Tenant    string       `json:"tenant,omitempty"`
}

// refUnmarshalStrict is unmarshalStrict on a Decoder of its own: the
// reference shares no pooled state with the decoder under test, so a
// body decoded against another body's leftovers shows up as a mismatch.
func refUnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("bad request body: %v", err)
	}
	if dec.More() {
		return badRequestf("bad request body: trailing data after JSON value")
	}
	return nil
}

// refDecodeQueryRequest is DecodeQueryRequest as it was before Coords:
// the same envelope strictness and validation, every number through
// encoding/json's reflection path. It returns the request in today's
// wire type so both sides go through the one CanonicalQueryHash.
func refDecodeQueryRequest(data []byte, needK bool) (*QueryRequest, []*trajcover.Facility, trajcover.Query, error) {
	var ref refQueryRequest
	if err := refUnmarshalStrict(data, &ref); err != nil {
		return nil, nil, trajcover.Query{}, err
	}
	if needK && ref.K <= 0 || ref.K > MaxK {
		return nil, nil, trajcover.Query{}, badRequestf("bad k %d", ref.K)
	}
	sc, err := parseScenario(ref.Scenario)
	if err != nil {
		return nil, nil, trajcover.Query{}, err
	}
	if !finite(ref.Psi) || ref.Psi < 0 || ref.TimeoutMS < 0 || len(ref.Facilities) > MaxFacilities {
		return nil, nil, trajcover.Query{}, badRequestf("bad psi, timeout_ms or facility count")
	}
	req := &QueryRequest{
		Facilities: make([]FacilityJSON, len(ref.Facilities)),
		K:          ref.K, Scenario: ref.Scenario, Psi: ref.Psi,
		Workers: min(max(ref.Workers, 1), MaxRequestWorkers), TimeoutMS: ref.TimeoutMS, Tenant: ref.Tenant,
	}
	facs := make([]*trajcover.Facility, len(ref.Facilities))
	for i, fj := range ref.Facilities {
		if len(fj.Stops) == 0 || len(fj.Stops) > MaxStops {
			return nil, nil, trajcover.Query{}, badRequestf("facility %d has %d stops", fj.ID, len(fj.Stops))
		}
		stops := make([]trajcover.Point, len(fj.Stops))
		for j, st := range fj.Stops {
			if !finite(st[0]) || !finite(st[1]) {
				return nil, nil, trajcover.Query{}, badRequestf("facility %d stop %d is not finite", fj.ID, j)
			}
			stops[j] = trajcover.Pt(st[0], st[1])
		}
		if facs[i], err = trajcover.NewFacility(trajcover.ID(fj.ID), stops); err != nil {
			return nil, nil, trajcover.Query{}, badRequestf("facility %d: %v", fj.ID, err)
		}
		req.Facilities[i] = FacilityJSON{ID: fj.ID, Stops: fj.Stops}
	}
	return req, facs, trajcover.Query{Scenario: sc, Psi: ref.Psi}, nil
}

// sameBits reports whether two coordinate arrays hold the same float64
// bit patterns (== would call -0 and 0 equal).
func sameBits(a, b [][2]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for d := range a[i] {
			if math.Float64bits(a[i][d]) != math.Float64bits(b[i][d]) {
				return false
			}
		}
	}
	return true
}

// requireMatchesReference is the differential half of FuzzDecodeRequest
// for an accepted query body.
func requireMatchesReference(t *testing.T, data []byte, needK bool, req *QueryRequest, facs []*trajcover.Facility, q trajcover.Query) {
	t.Helper()
	rreq, rfacs, rq, err := refDecodeQueryRequest(data, needK)
	if err != nil {
		t.Fatalf("decoder accepted a body the reference rejects: %v", err)
	}
	if req.K != rreq.K || req.Scenario != rreq.Scenario || math.Float64bits(req.Psi) != math.Float64bits(rreq.Psi) ||
		req.Workers != rreq.Workers || req.TimeoutMS != rreq.TimeoutMS || req.Tenant != rreq.Tenant || q != rq {
		t.Fatalf("request differs from the reference:\n got %+v %+v\nwant %+v %+v", req, q, rreq, rq)
	}
	if len(facs) != len(rfacs) || len(req.Facilities) != len(rreq.Facilities) {
		t.Fatalf("%d facilities (%d on the wire), reference %d (%d)", len(facs), len(req.Facilities), len(rfacs), len(rreq.Facilities))
	}
	for i, f := range facs {
		rf := rfacs[i]
		if f.ID != rf.ID || f.MBR() != rf.MBR() || req.Facilities[i].ID != rreq.Facilities[i].ID ||
			!sameBits(req.Facilities[i].Stops, rreq.Facilities[i].Stops) || len(f.Stops) != len(rf.Stops) {
			t.Fatalf("facility %d differs from the reference:\n got %+v\nwant %+v", i, f, rf)
		}
		for j, st := range f.Stops {
			if math.Float64bits(st.X) != math.Float64bits(rf.Stops[j].X) || math.Float64bits(st.Y) != math.Float64bits(rf.Stops[j].Y) {
				t.Fatalf("facility %d stop %d = %v, reference %v", i, j, st, rf.Stops[j])
			}
		}
	}
	k := 0
	if needK {
		k = req.K
	}
	if got, want := CanonicalQueryHash(PathTopK, req, k, q), CanonicalQueryHash(PathTopK, rreq, k, rq); got != want {
		t.Fatalf("canonical hash %x, reference %x", got, want)
	}
}

// The committed corpus (testdata/fuzz/FuzzDecodeRequest) adds the
// coordinate-pair shapes: pairs that are not exactly two numbers, null
// and empty arrays, and number spellings that must stay bit-exact.
func FuzzDecodeRequest(f *testing.F) {
	seeds := []string{
		`{"facilities":[{"id":1,"stops":[[500,500],[800,300]]}],"k":8,"scenario":"binary","psi":300}`,
		`{"facilities":[{"id":1,"stops":[[0,0]]}],"scenario":"pointcount","psi":0,"workers":4,"timeout_ms":250}`,
		`{"facilities":[],"k":1,"psi":1}`,
		`{"facilities":[{"id":4294967295,"stops":[[1e308,-1e308]]}],"k":1,"psi":1e308}`,
		`{"id":9001,"points":[[1,2],[3,4],[5,6]]}`,
		`{"id":9001,"points":[[1,2]]}`,
		`{"id":7}`,
		`{"facilities":[{"id":1,"stops":[[NaN,2]]}],"k":1,"psi":10}`,
		`{"facilities":[{"id":1,"stops":[[1e999,2]]}],"k":1,"psi":10}`,
		`{"k":-1,"psi":-5}`,
		`{"facilities":[{"id":1,"stops":[[1,2]]}],"k":1,"psi":10,"timeout_ms":-9}`,
		`[]`, `null`, `{}`, `{"facilities":`, "\x00\x01\x02", strings.Repeat(`{"a":`, 1000),
		// Tenant corpus: legal names, the empty field, path traversal,
		// oversized, separators, and non-ASCII — everything the tenant
		// layer must 4xx without ever touching the filesystem.
		`{"facilities":[{"id":1,"stops":[[1,2]]}],"k":1,"psi":10,"tenant":"acme"}`,
		`{"id":9001,"points":[[1,2],[3,4]],"tenant":"a-b.c_9"}`,
		`{"id":9001,"points":[[1,2],[3,4]],"tenant":""}`,
		`{"id":9001,"tenant":"../../etc"}`,
		`{"id":9001,"tenant":".."}`,
		`{"id":9001,"tenant":"a/b"}`,
		`{"id":9001,"tenant":"` + strings.Repeat("x", 65) + `"}`,
		`{"id":9001,"tenant":".hidden"}`,
		`{"id":9001,"tenant":"-dash"}`,
		`{"id":9001,"tenant":"éclair"}`,
		`{"tenant":"t1","id":3}`,
	}
	for _, s := range seeds {
		for kind := byte(0); kind < 3; kind++ {
			f.Add(kind, []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, kind byte, data []byte) {
		switch kind % 3 {
		case 0:
			req, facs, q, err := DecodeQueryRequest(data, true)
			requireReuseMatches(t, data, req, facs, q, err)
			if err != nil {
				requireBadRequest(t, err)
				return
			}
			if req.K <= 0 || req.K > MaxK {
				t.Fatalf("accepted k=%d", req.K)
			}
			if req.Workers < 1 || req.Workers > MaxRequestWorkers {
				t.Fatalf("accepted workers=%d (must normalize to [1, %d] so the pool bounds CPU)", req.Workers, MaxRequestWorkers)
			}
			requireSafeTenant(t, req.Tenant)
			if req.TimeoutMS < 0 {
				t.Fatalf("accepted timeout_ms=%d", req.TimeoutMS)
			}
			if math.IsNaN(q.Psi) || math.IsInf(q.Psi, 0) || q.Psi < 0 {
				t.Fatalf("accepted psi=%v", q.Psi)
			}
			if len(facs) > MaxFacilities {
				t.Fatalf("accepted %d facilities", len(facs))
			}
			for _, fac := range facs {
				if len(fac.Stops) == 0 || len(fac.Stops) > MaxStops {
					t.Fatalf("accepted facility with %d stops", len(fac.Stops))
				}
				for _, st := range fac.Stops {
					if !finite(st.X) || !finite(st.Y) {
						t.Fatalf("accepted non-finite stop %+v", st)
					}
				}
			}
			requireMatchesReference(t, data, true, req, facs, q)
		case 1:
			req, u, err := DecodeInsertRequest(data)
			if err != nil {
				requireBadRequest(t, err)
				return
			}
			if req.TimeoutMS < 0 {
				t.Fatalf("accepted timeout_ms=%d", req.TimeoutMS)
			}
			if u.Len() < 2 || u.Len() > MaxPoints {
				t.Fatalf("accepted trajectory with %d points", u.Len())
			}
			requireSafeTenant(t, req.Tenant)
			for _, p := range u.Points {
				if !finite(p.X) || !finite(p.Y) {
					t.Fatalf("accepted non-finite point %+v", p)
				}
			}
			// Validation past the shapes is shared code, so the reference
			// is the reflection decode of the same bytes.
			var ref refInsertRequest
			if err := refUnmarshalStrict(data, &ref); err != nil {
				t.Fatalf("decoder accepted a body the reference rejects: %v", err)
			}
			if req.ID != ref.ID || req.TimeoutMS != ref.TimeoutMS || req.Tenant != ref.Tenant || !sameBits(req.Points, ref.Points) {
				t.Fatalf("insert differs from the reference:\n got %+v\nwant %+v", req, ref)
			}
			for i, p := range u.Points {
				if math.Float64bits(p.X) != math.Float64bits(ref.Points[i][0]) || math.Float64bits(p.Y) != math.Float64bits(ref.Points[i][1]) {
					t.Fatalf("point %d = %v, reference %v", i, p, ref.Points[i])
				}
			}
		case 2:
			req, err := DecodeDeleteRequest(data)
			if err != nil {
				requireBadRequest(t, err)
				return
			}
			if req.TimeoutMS < 0 {
				t.Fatalf("accepted timeout_ms=%d", req.TimeoutMS)
			}
			requireSafeTenant(t, req.Tenant)
		}
	})
}

// dirtyBody is a query body that sets every field and holds more
// facilities and stops than most fuzzed bodies: what a pooled
// QueryBuffer has decoded before it meets the next body.
var dirtyBody = []byte(`{"facilities":[{"id":7,"stops":[[1,2],[3,4],[5,6]]},{"id":8,"stops":[[7,8]]},{"id":9,"stops":[[9,10],[11,12]]}],` +
	`"k":5,"scenario":"length","psi":12.5,"workers":3,"timeout_ms":99,"tenant":"acme"}`)

// requireReuseMatches decodes data into a QueryBuffer that has decoded
// dirtyBody before and holds the result to a fresh decode's (req, facs,
// q, err): the same error, or the same request — no field, facility or
// stop left over from the earlier body — and the same canonical hash.
func requireReuseMatches(t *testing.T, data []byte, req *QueryRequest, facs []*trajcover.Facility, q trajcover.Query, err error) {
	t.Helper()
	var buf QueryBuffer
	if _, _, _, err := buf.Decode(dirtyBody, true); err != nil {
		t.Fatal(err)
	}
	if _, err := buf.facilities(); err != nil {
		t.Fatal(err)
	}
	rreq, _, rq, rerr := buf.Decode(data, true)
	var rfacs []*trajcover.Facility
	if rerr == nil {
		rfacs, rerr = buf.facilities()
	}
	if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
		t.Fatalf("reused buffer: error %v, fresh decode %v", rerr, err)
	}
	if err != nil {
		return
	}
	if rq != q || rreq.K != req.K || rreq.Scenario != req.Scenario || rreq.Workers != req.Workers || rreq.TimeoutMS != req.TimeoutMS || rreq.Tenant != req.Tenant {
		t.Fatalf("reused buffer decoded %+v %+v, fresh decode %+v %+v", rreq, rq, req, q)
	}
	requireSameFacilities(t, rfacs, facs)
	if CanonicalQueryHash(PathTopK, rreq, rreq.K, rq) != CanonicalQueryHash(PathTopK, req, req.K, q) {
		t.Fatal("reused buffer: canonical hash differs from a fresh decode's")
	}
}

// requireSafeTenant pins the decode → resolve pipeline for a decoded
// body tenant: resolveTenant must either reject it as a 4xx or hand
// back a validated safe ID — the only two outcomes that can't create
// filesystem state for a hostile tenant name.
func requireSafeTenant(t *testing.T, bodyTenant string) {
	t.Helper()
	r := &http.Request{Header: http.Header{}}
	id, err := resolveTenant(r, bodyTenant)
	if err != nil {
		requireBadRequest(t, err)
		return
	}
	if err := tenant.ValidateID(id); err != nil {
		t.Fatalf("resolveTenant accepted %q as %q which fails validation: %v", bodyTenant, id, err)
	}
}

// FuzzResolveTenant throws arbitrary header/body tenant pairs at
// resolveTenant: whatever the bytes, the result is either a 4xx-mapped
// error or an ID that validates as a single safe path component —
// never a panic, never traversal, never an over-long name, and a
// header/body disagreement is always an error.
func FuzzResolveTenant(f *testing.F) {
	for _, pair := range [][2]string{
		{"", ""}, {"acme", ""}, {"", "acme"}, {"acme", "acme"},
		{"acme", "other"}, {"../evil", ""}, {"", "../evil"},
		{"..", ".."}, {"a/b", ""}, {strings.Repeat("x", 65), ""},
		{".hidden", ""}, {"-x", ""}, {"a b", ""}, {"é", "é"},
		{"x\x00y", ""}, {"default", ""},
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, header, body string) {
		r := &http.Request{Header: http.Header{}}
		if header != "" {
			r.Header.Set("X-Tenant", header)
		}
		id, err := resolveTenant(r, body)
		if err != nil {
			requireBadRequest(t, err)
			return
		}
		if err := tenant.ValidateID(id); err != nil {
			t.Fatalf("resolveTenant(%q, %q) = %q, fails validation: %v", header, body, id, err)
		}
		if strings.ContainsAny(id, "/\\") || strings.Contains(id, "..") || len(id) > tenant.MaxIDLen {
			t.Fatalf("resolveTenant(%q, %q) = %q is not a safe path component", header, body, id)
		}
		if header != "" && body != "" && header != body {
			t.Fatalf("resolveTenant(%q, %q) accepted a header/body mismatch", header, body)
		}
	})
}

// requireBadRequest pins every decoder failure to the 4xx-mapped type —
// a decoder error must never surface as a 5xx.
func requireBadRequest(t *testing.T, err error) {
	t.Helper()
	if _, ok := err.(*badRequest); !ok {
		t.Fatalf("decoder error %v (%T) is not a badRequest", err, err)
	}
}

// MarshalValuesResponse encodes a servicevalues answer exactly as the
// handler does.
func MarshalValuesResponse(values []float64) []byte {
	return AppendValuesResponse(nil, values)
}

// FuzzResponseEncoding holds the hand-written answer encoders to
// encoding/json, byte for byte: every 12 bytes of data are one facility
// ID and one float64's bits (non-finite ones skipped: no answer holds
// one), encoded as a TopKResponse through AppendTopKResponse and
// AppendRankedResponse and as a ValuesResponse through
// AppendValuesResponse — each appended after a prefix, which must stay
// as it was — and, with no records, as the nil and the empty answer.
func FuzzResponseEncoding(f *testing.F) {
	record := func(id uint32, v float64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, id)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	var all []byte
	for i, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 123.456, 1e-6, 9.99999e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.5e300, 5e-324, math.MaxFloat64, 1e-10, 33, 2.5e-5} {
		f.Add(record(uint32(i), v))
		all = append(all, record(uint32(i)*977, v)...)
	}
	f.Add(all)
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var ranked []trajcover.Ranked
		var wire []RankedJSON
		var values []float64
		for ; len(data) >= 12; data = data[12:] {
			id, v := binary.LittleEndian.Uint32(data), math.Float64frombits(binary.LittleEndian.Uint64(data[4:]))
			if !finite(v) {
				continue
			}
			ranked = append(ranked, trajcover.Ranked{Facility: &trajcover.Facility{ID: trajcover.ID(id)}, Service: v})
			wire = append(wire, RankedJSON{ID: id, Service: v})
			values = append(values, v)
		}
		prefix := []byte("prefix:")
		check := func(what string, got []byte, v any) {
			t.Helper()
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s: %s, encoding/json %s", what, got, want)
			}
		}
		// A top-k answer's results are an array even when empty, as the
		// handler has always built them; a nil values slice is null.
		results := TopKResponse{Results: append([]RankedJSON{}, wire...)}
		check("AppendTopKResponse", AppendTopKResponse(bytes.Clone(prefix), ranked), results)
		check("AppendRankedResponse", AppendRankedResponse(bytes.Clone(prefix), wire), results)
		check("AppendValuesResponse", AppendValuesResponse(bytes.Clone(prefix), values), ValuesResponse{Values: values})
		if len(values) == 0 {
			check("AppendValuesResponse(empty)", AppendValuesResponse(bytes.Clone(prefix), []float64{}), ValuesResponse{Values: []float64{}})
		}
	})
}
