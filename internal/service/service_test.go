package service

import (
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func twoPoint(id trajectory.ID, sx, sy, dx, dy float64) *trajectory.Trajectory {
	return trajectory.MustNew(id, []geo.Point{geo.Pt(sx, sy), geo.Pt(dx, dy)})
}

func TestBinaryValue(t *testing.T) {
	u := twoPoint(1, 0, 0, 10, 0)
	tests := []struct {
		name  string
		stops []geo.Point
		psi   float64
		want  float64
	}{
		{"both ends near stops", []geo.Point{geo.Pt(0, 1), geo.Pt(10, 1)}, 1.5, 1},
		{"only source near", []geo.Point{geo.Pt(0, 1)}, 1.5, 0},
		{"only dest near", []geo.Point{geo.Pt(10, 1)}, 1.5, 0},
		{"same stop serves both within psi", []geo.Point{geo.Pt(5, 0)}, 5, 1},
		{"nothing near", []geo.Point{geo.Pt(100, 100)}, 1, 0},
		{"boundary exactly psi", []geo.Point{geo.Pt(0, 2), geo.Pt(10, 2)}, 2, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Value(Binary, u, tt.stops, tt.psi); got != tt.want {
				t.Errorf("Value = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestPointCountValue(t *testing.T) {
	u := trajectory.MustNew(1, []geo.Point{
		geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(20, 0), geo.Pt(30, 0),
	})
	// Stops cover points 0 and 2 only.
	stops := []geo.Point{geo.Pt(0, 1), geo.Pt(20, 1)}
	if got := Value(PointCount, u, stops, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Value = %v, want 0.5", got)
	}
	if got := Value(PointCount, u, stops, 0.5); got != 0 {
		t.Errorf("Value with tiny psi = %v, want 0", got)
	}
	if got := Value(PointCount, u, stops, 1e6); got != 1 {
		t.Errorf("Value with huge psi = %v, want 1", got)
	}
}

func TestLengthValue(t *testing.T) {
	// Three segments of lengths 10, 20, 30 (total 60).
	u := trajectory.MustNew(1, []geo.Point{
		geo.Pt(0, 0), geo.Pt(10, 0), geo.Pt(30, 0), geo.Pt(60, 0),
	})
	// Cover points 0,1 -> first segment (length 10) served.
	stops := []geo.Point{geo.Pt(0, 0), geo.Pt(10, 0)}
	if got := Value(Length, u, stops, 1); math.Abs(got-10.0/60) > 1e-12 {
		t.Errorf("Value = %v, want %v", got, 10.0/60)
	}
	// Cover points 1,2 -> middle segment (20/60).
	stops = []geo.Point{geo.Pt(10, 0), geo.Pt(30, 0)}
	if got := Value(Length, u, stops, 1); math.Abs(got-20.0/60) > 1e-12 {
		t.Errorf("middle segment = %v, want %v", got, 20.0/60)
	}
	// Covering only point 1 serves no segment.
	stops = []geo.Point{geo.Pt(10, 0)}
	if got := Value(Length, u, stops, 1); got != 0 {
		t.Errorf("single covered point = %v, want 0", got)
	}
	// All points -> full length.
	stops = u.Points
	if got := Value(Length, u, stops, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("all covered = %v, want 1", got)
	}
}

func TestLengthValueZeroLengthTrajectory(t *testing.T) {
	u := trajectory.MustNew(1, []geo.Point{geo.Pt(5, 5), geo.Pt(5, 5)})
	if got := Value(Length, u, []geo.Point{geo.Pt(5, 5)}, 1); got != 0 {
		t.Errorf("zero-length trajectory value = %v, want 0", got)
	}
}

func TestPointServedBoundaryInclusive(t *testing.T) {
	if !PointServed(geo.Pt(0, 0), []geo.Point{geo.Pt(3, 4)}, 5) {
		t.Error("distance exactly psi not served")
	}
	if PointServed(geo.Pt(0, 0), []geo.Point{geo.Pt(3, 4)}, 4.999) {
		t.Error("distance beyond psi served")
	}
	if PointServed(geo.Pt(0, 0), nil, 100) {
		t.Error("empty stop set served a point")
	}
}

func TestMaskBasics(t *testing.T) {
	m := NewMask(130)
	if m.Count() != 0 {
		t.Error("fresh mask not empty")
	}
	m.Set(0)
	m.Set(64)
	m.Set(129)
	if m.Count() != 3 {
		t.Errorf("Count = %d, want 3", m.Count())
	}
	for _, i := range []int{0, 64, 129} {
		if !m.Get(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if m.Get(1) || m.Get(128) {
		t.Error("unset bit reads true")
	}
	if m.Count() == 0 {
		t.Error("non-empty mask counts no point")
	}
	other := NewMask(130)
	other.Set(7)
	m.Or(other)
	if !m.Get(7) || m.Count() != 4 {
		t.Error("Or failed")
	}
}

func TestMaskOfAndValueFromMaskAgreeWithValue(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		u := trajectory.MustNew(trajectory.ID(trial), pts)
		stops := make([]geo.Point, 1+rng.Intn(8))
		for i := range stops {
			stops[i] = geo.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		psi := rng.Float64() * 30
		m := MaskOf(u, stops, psi)
		for _, sc := range []Scenario{Binary, PointCount, Length} {
			direct := Value(sc, u, stops, psi)
			viaMask := ValueFromMask(sc, u, m)
			if math.Abs(direct-viaMask) > 1e-12 {
				t.Fatalf("%v: direct %v != viaMask %v", sc, direct, viaMask)
			}
		}
	}
}

// coverTable builds a table of one facility per element of masks, each
// setting the given points of the users at the given ordinals.
func coverTable(users []*trajectory.Trajectory, masks ...map[int32][]int) *CoverTable {
	b := NewCoverBuilder(len(users))
	for _, fm := range masks {
		for ord := int32(0); int(ord) < len(users); ord++ {
			for _, i := range fm[ord] {
				b.Mask(ord, users[ord].Len()).Set(i)
			}
		}
		b.Next()
	}
	out := make([]*trajectory.Trajectory, len(b.Ordinals()))
	for s, ord := range b.Ordinals() {
		out[s] = users[ord]
	}
	return b.Build(out)
}

// union ORs the masks of a table's facilities per user slot.
func union(t *CoverTable) []Mask {
	out := make([]Mask, len(t.Users))
	for s, u := range t.Users {
		out[s] = NewMask(u.Len())
	}
	for i := 0; i < t.Len(); i++ {
		for _, r := range t.Rows(i) {
			out[r.Slot].Or(r.Mask)
		}
	}
	return out
}

func TestCoverageMergeAndCombinedValue(t *testing.T) {
	// A user whose source is covered by f1 and dest by f2: combined AGG
	// semantics must count it as served in Binary — the paper's
	// non-submodularity construction. Both facilities name the user's one
	// slot.
	u := twoPoint(1, 0, 0, 100, 0)
	users := []*trajectory.Trajectory{u}
	f1 := MaskOf(u, []geo.Point{geo.Pt(0, 1)}, 2)   // covers source only
	f2 := MaskOf(u, []geo.Point{geo.Pt(100, 1)}, 2) // covers dest only
	if !f1.Get(0) || f1.Get(1) || f2.Get(0) || !f2.Get(1) {
		t.Fatalf("masks %v %v", f1, f2)
	}
	cov := coverTable(users, map[int32][]int{0: {0}}, map[int32][]int{0: {1}})
	if cov.Len() != 2 || len(cov.Users) != 1 {
		t.Fatalf("%d facilities over %d users, want 2 over 1", cov.Len(), len(cov.Users))
	}
	for i := 0; i < 2; i++ {
		r := cov.Rows(i)
		if len(r) != 1 || r[0].Slot != 0 {
			t.Fatalf("facility %d rows %+v, want one row of slot 0", i, r)
		}
		if v := ValueFromMask(Binary, u, r[0].Mask); v != 0 {
			t.Errorf("facility %d alone = %v, want 0", i, v)
		}
	}
	if v := ValueFromMask(Binary, u, union(cov)[0]); v != 1 {
		t.Errorf("combined = %v, want 1 (joint service)", v)
	}
}

// TestCoverageMergeDoesNotMutateInputs: ConcatCover joins per-shard tables
// facility by facility, offsetting the later tables' slots, and leaves its
// inputs as they were.
func TestCoverageMergeDoesNotMutateInputs(t *testing.T) {
	a := []*trajectory.Trajectory{twoPoint(1, 0, 0, 10, 0), twoPoint(2, 5, 5, 6, 6)}
	b := []*trajectory.Trajectory{twoPoint(3, 0, 0, 10, 0)}
	ta := coverTable(a, map[int32][]int{1: {0}}, map[int32][]int{0: {0, 1}, 1: {1}})
	tb := coverTable(b, map[int32][]int{0: {1}}, map[int32][]int{})
	before := tb.Rows(0)[0]
	got := ConcatCover([]*CoverTable{ta, tb})
	if tb.Rows(0)[0].Slot != before.Slot || tb.Rows(0)[0].Mask.Count() != 1 || len(ta.Users) != 2 {
		t.Error("ConcatCover mutated its input")
	}
	ids := func(i int) []trajectory.ID {
		var out []trajectory.ID
		for _, r := range got.Rows(i) {
			out = append(out, got.Users[r.Slot].ID)
		}
		return out
	}
	if got.Len() != 2 || len(got.Users) != 3 {
		t.Fatalf("%d facilities over %d users, want 2 over 3", got.Len(), len(got.Users))
	}
	if f0, f1 := ids(0), ids(1); len(f0) != 2 || f0[0] != 2 || f0[1] != 3 || len(f1) != 2 || f1[0] != 1 || f1[1] != 2 {
		t.Fatalf("facility users %v and %v, want [2 3] and [1 2]", f0, f1)
	}
	if m := got.Rows(0)[1].Mask; !m.Get(1) || m.Get(0) {
		t.Errorf("the second table's mask moved: %v", m)
	}
}

// TestCombinedValueNoDoubleCounting: one facility reaching a user twice
// (two segments) ORs into one row, and two facilities covering the same
// points do not double the value.
func TestCombinedValueNoDoubleCounting(t *testing.T) {
	u := trajectory.MustNew(1, []geo.Point{geo.Pt(0, 0), geo.Pt(1, 0), geo.Pt(2, 0), geo.Pt(3, 0)})
	users := []*trajectory.Trajectory{u}
	b := NewCoverBuilder(1)
	b.Mask(0, u.Len()).Set(0)
	b.Mask(0, u.Len()).Set(1)
	b.Next()
	b.Mask(0, u.Len()).Set(1)
	b.Mask(0, u.Len()).Set(0)
	b.Next()
	cov := b.Build(users)
	if len(cov.Rows(0)) != 1 || len(cov.Rows(1)) != 1 {
		t.Fatalf("rows %d and %d, want one each", len(cov.Rows(0)), len(cov.Rows(1)))
	}
	single := ValueFromMask(PointCount, u, cov.Rows(0)[0].Mask)
	double := ValueFromMask(PointCount, u, union(cov)[0])
	if math.Abs(single-double) > 1e-12 {
		t.Errorf("duplicate coverage changed value: %v vs %v", single, double)
	}
	if math.Abs(single-0.5) > 1e-12 {
		t.Errorf("value = %v, want 0.5", single)
	}
}

func TestScenarioString(t *testing.T) {
	if Binary.String() != "binary" || PointCount.String() != "pointcount" || Length.String() != "length" {
		t.Error("Scenario.String broken")
	}
	if !Binary.Valid() || Scenario(9).Valid() {
		t.Error("Scenario.Valid broken")
	}
}
