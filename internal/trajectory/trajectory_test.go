package trajectory

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/trajcover/trajcover/internal/geo"
)

func TestNewComputesGeometry(t *testing.T) {
	tr, err := New(7, []geo.Point{geo.Pt(0, 0), geo.Pt(3, 4), geo.Pt(3, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 3 || tr.NumSegments() != 2 {
		t.Errorf("Len,NumSegments = %d,%d want 3,2", tr.Len(), tr.NumSegments())
	}
	if math.Abs(tr.Length()-11) > 1e-12 {
		t.Errorf("Length = %v, want 11", tr.Length())
	}
	if tr.Source() != geo.Pt(0, 0) || tr.Dest() != geo.Pt(3, 10) {
		t.Errorf("Source/Dest = %v/%v", tr.Source(), tr.Dest())
	}
	want := geo.Rect{MinX: 0, MinY: 0, MaxX: 3, MaxY: 10}
	if tr.MBR() != want {
		t.Errorf("MBR = %v, want %v", tr.MBR(), want)
	}
	if math.Abs(tr.SegmentLength(0)-5) > 1e-12 {
		t.Errorf("SegmentLength(0) = %v, want 5", tr.SegmentLength(0))
	}
}

func TestNewRejectsShort(t *testing.T) {
	if _, err := New(1, []geo.Point{geo.Pt(0, 0)}); !errors.Is(err, ErrTooShort) {
		t.Errorf("1-point trajectory error = %v, want ErrTooShort", err)
	}
	if _, err := New(1, nil); !errors.Is(err, ErrTooShort) {
		t.Errorf("empty trajectory error = %v, want ErrTooShort", err)
	}
}

// TestNonFiniteRejected: a NaN or ±Inf coordinate, or finite coordinates
// whose polyline length overflows, is ErrNotFinite from New, Validate,
// NewSet, MakeFacility and NewTable (whichever row layout), never a trajectory,
// facility, set or table whose bounds and lengths are not finite.
func TestNonFiniteRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := map[string][]geo.Point{
		"NaN x":           {geo.Pt(nan, 0), geo.Pt(1, 1)},
		"+Inf y":          {geo.Pt(0, 0), geo.Pt(1, inf)},
		"-Inf last":       {geo.Pt(0, 0), geo.Pt(1, 1), geo.Pt(-inf, 2)},
		"two +Inf":        {geo.Pt(inf, 0), geo.Pt(inf, 0)},
		"NaN middle":      {geo.Pt(0, 0), geo.Pt(nan, nan), geo.Pt(2, 2)},
		"length overflow": {geo.Pt(-1e300, 0), geo.Pt(1e300, 0)},
	}
	for name, pts := range bad {
		if _, err := New(9, pts); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%s: New error = %v, want ErrNotFinite", name, err)
		}
		if err := (&Trajectory{ID: 9, Points: pts}).Validate(); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%s: Validate error = %v, want ErrNotFinite", name, err)
		}
		if _, err := NewSet([]*Trajectory{{ID: 9, Points: pts}}); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%s: NewSet error = %v, want ErrNotFinite", name, err)
		}
		// The recorded length is the one its points give, so only the
		// finiteness test can refuse the row; a finite row beside it
		// keeps the table two-point or multipoint as the bad row is.
		rows := [][]geo.Point{{geo.Pt(0, 0), geo.Pt(3, 4)}, pts}
		var ids []ID
		off := []uint32{0}
		var length []float64
		var arena []geo.Point
		for i, r := range rows {
			ids = append(ids, ID(i))
			arena = append(arena, r...)
			off = append(off, uint32(len(arena)))
			length = append(length, lengthOf(r))
		}
		if _, err := NewTable(ids, off, length, arena); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%s: NewTable error = %v, want ErrNotFinite", name, err)
		}
		if name == "length overflow" {
			continue // finite stops: a facility has no length
		}
		if _, err := MakeFacility(9, pts); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%s: MakeFacility error = %v, want ErrNotFinite", name, err)
		}
		if _, err := NewFacility(9, pts); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%s: NewFacility error = %v, want ErrNotFinite", name, err)
		}
	}
	if err := (&Trajectory{ID: 9, Points: []geo.Point{geo.Pt(1, 1)}}).Validate(); !errors.Is(err, ErrTooShort) {
		t.Errorf("1-point literal: Validate error = %v, want ErrTooShort", err)
	}
	if _, err := New(9, []geo.Point{geo.Pt(-1e150, 0), geo.Pt(1e150, 0)}); err != nil {
		t.Errorf("large finite trajectory: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on invalid input")
		}
	}()
	MustNew(1, nil)
}

func TestFacility(t *testing.T) {
	f, err := NewFacility(3, []geo.Point{geo.Pt(1, 1), geo.Pt(5, 9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Stops) != 2 {
		t.Errorf("%d stops, want 2", len(f.Stops))
	}
	if f.MBR() != (geo.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 9}) {
		t.Errorf("MBR = %v", f.MBR())
	}
	// The EMBR holds the exact expansion, padded by at most 2^-39 of its
	// largest magnitude (geo.Rect.Expand's ψ-reach pad).
	e, want := f.EMBR(2), geo.Rect{MinX: -1, MinY: -1, MaxX: 7, MaxY: 11}
	if !e.ContainsRect(want) || !want.Expand(11*0x1p-39).ContainsRect(e) {
		t.Errorf("EMBR = %v, want %v", e, want)
	}
	if _, err := NewFacility(4, nil); err == nil {
		t.Error("NewFacility accepted empty stops")
	}
}

func TestSet(t *testing.T) {
	a := MustNew(1, []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)})
	b := MustNew(2, []geo.Point{geo.Pt(5, 5), geo.Pt(9, 9), geo.Pt(10, 10)})
	s, err := NewSet([]*Trajectory{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
	if s.ByID(2) != b || s.ByID(1) != a {
		t.Error("ByID lookup broken")
	}
	if s.ByID(99) != nil {
		t.Error("ByID(99) should be nil")
	}
	if s.TotalPoints() != 5 {
		t.Errorf("TotalPoints = %d, want 5", s.TotalPoints())
	}
	bounds, ok := s.Bounds()
	if !ok || bounds != (geo.Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}) {
		t.Errorf("Bounds = %v,%v", bounds, ok)
	}
}

func TestSetRejectsDuplicateIDs(t *testing.T) {
	a := MustNew(1, []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)})
	b := MustNew(1, []geo.Point{geo.Pt(2, 2), geo.Pt(3, 3)})
	if _, err := NewSet([]*Trajectory{a, b}); err == nil {
		t.Error("NewSet accepted duplicate IDs")
	}
}

// TestSetOwnsItsSlice: a set keeps its own copy of the slice it was
// built from, so changes to the caller's reach neither All nor lookup.
func TestSetOwnsItsSlice(t *testing.T) {
	var in []*Trajectory
	for id := ID(0); id < 40; id++ {
		in = append(in, MustNew(id, []geo.Point{geo.Pt(float64(id), 0), geo.Pt(float64(id), 1)}))
	}
	orig := append([]*Trajectory(nil), in...)
	s := MustNewSet(in)
	for i := range in {
		in[i] = MustNew(ID(100+i), []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)})
	}
	if s.Len() != 40 {
		t.Fatalf("Len = %d, want 40", s.Len())
	}
	for i, u := range s.All {
		if u != orig[i] || s.ByID(u.ID) != u {
			t.Fatalf("set changed with the caller's slice at %d", i)
		}
	}
	if s.ByID(100) != nil {
		t.Fatal("ByID found a trajectory only the caller's slice holds")
	}
}

func TestEmptySetBounds(t *testing.T) {
	s := MustNewSet(nil)
	if _, ok := s.Bounds(); ok {
		t.Error("empty set reported bounds")
	}
}

func TestCSVRoundTripTrajectories(t *testing.T) {
	ts := []*Trajectory{
		MustNew(1, []geo.Point{geo.Pt(0.5, -1.25), geo.Pt(3, 4)}),
		MustNew(42, []geo.Point{geo.Pt(1, 2), geo.Pt(3, 4), geo.Pt(5, 6)}),
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ts); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("got %d trajectories", len(back))
	}
	for i := range ts {
		if back[i].ID != ts[i].ID || back[i].Len() != ts[i].Len() {
			t.Errorf("row %d mismatch: %v vs %v", i, back[i], ts[i])
		}
		for j := range ts[i].Points {
			if back[i].Points[j] != ts[i].Points[j] {
				t.Errorf("row %d point %d: %v vs %v", i, j, back[i].Points[j], ts[i].Points[j])
			}
		}
	}
}

func TestCSVRoundTripFacilities(t *testing.T) {
	fs := []*Facility{
		MustNewFacility(7, []geo.Point{geo.Pt(1, 1), geo.Pt(2, 2), geo.Pt(3, 1)}),
	}
	var buf bytes.Buffer
	if err := WriteFacilitiesCSV(&buf, fs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFacilitiesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0].ID != 7 || len(back[0].Stops) != 3 {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestCSVRoundTripProperty(t *testing.T) {
	// Random trajectories survive a write/read cycle exactly
	// (coordinates use %g full precision).
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(count)%20
		ts := make([]*Trajectory, n)
		for i := range ts {
			pts := make([]geo.Point, 2+rng.Intn(6))
			for j := range pts {
				pts[j] = geo.Pt(rng.NormFloat64()*1e5, rng.NormFloat64()*1e5)
			}
			ts[i] = MustNew(ID(i), pts)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ts); err != nil {
			return false
		}
		back, err := ReadCSV(&buf)
		if err != nil || len(back) != n {
			return false
		}
		for i := range ts {
			if back[i].ID != ts[i].ID || back[i].Len() != ts[i].Len() {
				return false
			}
			for j := range ts[i].Points {
				if back[i].Points[j] != ts[i].Points[j] {
					return false
				}
			}
			if math.Abs(back[i].Length()-ts[i].Length()) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestReadCSVRejectsMalformed(t *testing.T) {
	cases := []string{
		"1,2\n",       // even field count
		"1\n",         // too few fields
		"x,1,2,3,4\n", // bad id
		"1,a,2,3,4\n", // bad coordinate
		"1,1,2\n",     // single point: New rejects
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadCSV accepted %q", in)
		}
	}
}
