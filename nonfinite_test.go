package trajcover

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// TestNonFiniteGeometryRejected: every library entry point that takes
// geometry refuses a NaN or ±Inf coordinate with ErrNotFinite —
// NewTrajectory, NewFacility, and, for a trajectory built as a bare
// literal that bypassed NewTrajectory, NewIndex, NewFrozenIndex,
// NewBaseline and Index.Insert — and an index that refused an insert
// answers as before.
func TestNonFiniteGeometryRejected(t *testing.T) {
	users := TaxiTrips(NewYorkCity(), 200, 5)
	routes := BusRoutes(NewYorkCity(), 4, 6, 5)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pts := []Point{users[0].Points[0], Pt(v, users[0].Points[1].Y)}
		if _, err := NewTrajectory(1000, pts); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%v: NewTrajectory error = %v, want ErrNotFinite", v, err)
		}
		if _, err := NewFacility(1000, pts); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%v: NewFacility error = %v, want ErrNotFinite", v, err)
		}
		bad := &Trajectory{ID: 1000, Points: pts}
		withBad := append(users[:len(users):len(users)], bad)
		if _, err := NewIndex(withBad, IndexOptions{Shards: 2}); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%v: NewIndex error = %v, want ErrNotFinite", v, err)
		}
		if _, err := NewFrozenIndex(withBad, IndexOptions{}); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%v: NewFrozenIndex error = %v, want ErrNotFinite", v, err)
		}
		if _, err := NewBaseline(withBad, TwoPoint); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%v: NewBaseline error = %v, want ErrNotFinite", v, err)
		}
		idx, err := NewIndex(users, IndexOptions{Shards: 2, Policy: LivePolicy{Manual: true}})
		if err != nil {
			t.Fatal(err)
		}
		want, err := idx.ServiceValues(routes, Query{Scenario: Binary, Psi: DefaultPsi}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.Insert(bad); !errors.Is(err, ErrNotFinite) {
			t.Errorf("%v: Insert error = %v, want ErrNotFinite", v, err)
		}
		if err := idx.Insert(&Trajectory{ID: 1001, Points: pts[:1]}); err == nil {
			t.Errorf("%v: Insert accepted a one-point literal", v)
		}
		got, err := idx.ServiceValues(routes, Query{Scenario: Binary, Psi: DefaultPsi}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if idx.Len() != len(users) || !slices.Equal(got, want) {
			t.Errorf("%v: after refused inserts Len = %d, values %v; want %d, %v", v, idx.Len(), got, len(users), want)
		}
	}
}
