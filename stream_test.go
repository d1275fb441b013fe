package trajcover

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// streamFixtures builds every index flavor over one small corpus.
func streamFixtures(t *testing.T) ([]namedFlavor, []*Facility) {
	t.Helper()
	ny := NewYorkCity()
	return allFlavors(t, TaxiTrips(ny, 60, 43)), BusRoutes(ny, 33, 6, 44)
}

// TestServiceValuesStreamMatchesBatch pins the streaming contract:
// over every index flavor and several chunk sizes, reassembled
// streamed values are bit-identical to the batch answer, chunks
// arrive in facility order with the declared starts, and metrics of
// correctness (no gaps, no overlaps) hold.
func TestServiceValuesStreamMatchesBatch(t *testing.T) {
	ss, facs := streamFixtures(t)
	ctx := context.Background()
	for _, sc := range []Scenario{Binary, PointCount, Length} {
		q := Query{Scenario: sc, Psi: DefaultPsi}
		for _, s := range ss {
			want, err := s.ServiceValuesCtx(ctx, facs, q, 2)
			if err != nil {
				t.Fatalf("%s/%v: batch: %v", s.name, sc, err)
			}
			for _, chunk := range []int{1, 7, 0, len(facs), len(facs) + 10} {
				got := make([]float64, len(facs))
				seen := make([]bool, len(facs))
				next := 0
				err := s.ServiceValuesStreamCtx(ctx, facs, q, 2, chunk, func(start int, vals []float64) error {
					if start != next {
						return fmt.Errorf("chunk start %d, want %d", start, next)
					}
					for i, v := range vals {
						if seen[start+i] {
							return fmt.Errorf("facility %d yielded twice", start+i)
						}
						seen[start+i] = true
						got[start+i] = v
					}
					next = start + len(vals)
					return nil
				})
				if err != nil {
					t.Fatalf("%s/%v chunk %d: %v", s.name, sc, chunk, err)
				}
				if next != len(facs) {
					t.Fatalf("%s/%v chunk %d: stream ended at %d of %d", s.name, sc, chunk, next, len(facs))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s/%v chunk %d: facility %d: streamed %v, batch %v", s.name, sc, chunk, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestServiceValuesStreamAborts pins the failure contract: a yield
// error surfaces verbatim and stops the stream at that chunk, and a
// cancelled context fails the stream.
func TestServiceValuesStreamAborts(t *testing.T) {
	ss, facs := streamFixtures(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	sentinel := errors.New("stop here")
	for _, s := range ss {
		calls := 0
		err := s.ServiceValuesStreamCtx(context.Background(), facs, q, 1, 8, func(start int, vals []float64) error {
			calls++
			return sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: yield error = %v, want sentinel", s.name, err)
		}
		if calls != 1 {
			t.Fatalf("%s: %d chunks after aborting yield, want 1", s.name, calls)
		}

		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := s.ServiceValuesStreamCtx(ctx, facs, q, 1, 8, func(int, []float64) error { return nil }); err == nil {
			t.Fatalf("%s: cancelled stream returned nil error", s.name)
		}
	}
}

// TestServiceValuesStreamValidates pins that parameter validation
// fires even before the first chunk — also when there is no chunk at all
// (an empty facility list): a bad psi, or a scenario the index cannot
// answer exactly (PointCount on a TwoPoint index over multipoint data),
// fails the stream without yielding, matching the batch path's error.
func TestServiceValuesStreamValidates(t *testing.T) {
	ss, facs := streamFixtures(t)
	multipoint := allFlavors(t, Checkins(NewYorkCity(), 60, 6, 45))
	cases := []struct {
		name string
		ss   []namedFlavor
		facs []*Facility
		q    Query
	}{
		{"bad psi", ss, facs, Query{Scenario: Binary, Psi: -1}},
		{"bad psi, no facilities", ss, nil, Query{Scenario: Binary, Psi: -1}},
		{"unsupported scenario", multipoint, facs, Query{Scenario: PointCount, Psi: DefaultPsi}},
		{"unsupported scenario, no facilities", multipoint, nil, Query{Scenario: PointCount, Psi: DefaultPsi}},
	}
	for _, c := range cases {
		for _, s := range c.ss {
			_, berr := s.ServiceValuesCtx(context.Background(), c.facs, c.q, 1)
			if berr == nil {
				t.Fatalf("%s/%s: batch accepted the query", s.name, c.name)
			}
			serr := s.ServiceValuesStreamCtx(context.Background(), c.facs, c.q, 1, 8, func(int, []float64) error {
				t.Fatalf("%s/%s: yield called for invalid query", s.name, c.name)
				return nil
			})
			if serr == nil {
				t.Fatalf("%s/%s: stream accepted the query", s.name, c.name)
			}
		}
	}
}
