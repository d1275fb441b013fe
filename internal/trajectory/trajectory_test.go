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
	if f.Len() != 2 {
		t.Errorf("Len = %d, want 2", f.Len())
	}
	if f.MBR() != (geo.Rect{MinX: 1, MinY: 1, MaxX: 5, MaxY: 9}) {
		t.Errorf("MBR = %v", f.MBR())
	}
	e := f.EMBR(2)
	if e != (geo.Rect{MinX: -1, MinY: -1, MaxX: 7, MaxY: 11}) {
		t.Errorf("EMBR = %v", e)
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

func TestSetAddRemove(t *testing.T) {
	s := MustNewSet(nil)
	a := MustNew(1, []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)})
	b := MustNew(2, []geo.Point{geo.Pt(2, 2), geo.Pt(3, 3)})
	if err := s.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(a); err == nil {
		t.Error("duplicate Add accepted")
	}
	if !s.Remove(1) {
		t.Error("Remove(1) failed")
	}
	if s.Remove(1) {
		t.Error("second Remove(1) succeeded")
	}
	if s.Len() != 1 || s.ByID(1) != nil || s.ByID(2) != b {
		t.Errorf("set state wrong after remove: len=%d", s.Len())
	}
	if !s.Remove(2) || s.Len() != 0 {
		t.Error("Remove(2) failed")
	}
	// Re-adding after removal must work.
	if err := s.Add(a); err != nil {
		t.Errorf("re-Add after Remove: %v", err)
	}
}

// TestSetOwnsItsSlice: a set's swap-deletes and appends stay in its own
// copy of the slice it was built from, and lookup survives every move.
func TestSetOwnsItsSlice(t *testing.T) {
	var in []*Trajectory
	for id := ID(0); id < 40; id++ {
		in = append(in, MustNew(id, []geo.Point{geo.Pt(float64(id), 0), geo.Pt(float64(id), 1)}))
	}
	orig := append([]*Trajectory(nil), in...)
	s := MustNewSet(in)
	for id := ID(0); id < 40; id += 2 {
		if !s.Remove(id) {
			t.Fatalf("Remove(%d) failed", id)
		}
	}
	if err := s.Add(MustNew(99, []geo.Point{geo.Pt(0, 0), geo.Pt(1, 1)})); err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if in[i] != orig[i] {
			t.Fatalf("caller's slice changed at %d", i)
		}
	}
	if s.Len() != 21 {
		t.Fatalf("Len = %d, want 21", s.Len())
	}
	for id := ID(0); id < 40; id++ {
		if got := s.ByID(id); (got != nil) != (id%2 == 1) || (got != nil && got != orig[id]) {
			t.Fatalf("ByID(%d) = %v after removals", id, got)
		}
	}
	for i, u := range s.All {
		if s.ByID(u.ID) != s.All[i] {
			t.Fatalf("position index stale for id %d", u.ID)
		}
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
	if len(back) != 1 || back[0].ID != 7 || back[0].Len() != 3 {
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
