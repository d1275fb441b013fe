package trajcover

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// frozenCase is one (dataset, variant) equivalence configuration. The
// scenarios listed are the ones the variant answers exactly over that
// dataset (a TwoPoint tree over multipoint data answers Binary only).
type frozenCase struct {
	name      string
	users     []*Trajectory
	variant   Variant
	scenarios []Scenario
}

func frozenCases(t testing.TB) []frozenCase {
	t.Helper()
	ny := NewYorkCity()
	trips := TaxiTrips(ny, 1500, 7)
	checkins := Checkins(ny, 900, 4, 8)
	return []frozenCase{
		{"twopoint/trips", trips, TwoPoint, []Scenario{Binary, PointCount, Length}},
		{"twopoint/checkins", checkins, TwoPoint, []Scenario{Binary}},
		{"segmented/checkins", checkins, Segmented, []Scenario{Binary, PointCount, Length}},
		{"full/checkins", checkins, FullTrajectory, []Scenario{Binary, PointCount, Length}},
	}
}

// TestFrozenEquivalence proves the frozen columnar index answers
// ServiceValues and TopK bit-identically to the pointer tree it was
// frozen from, across all variants, both orderings, and every scenario
// the variant supports — including identical work metrics, because both
// layouts run the same search in the same order.
func TestFrozenEquivalence(t *testing.T) {
	routes := BusRoutes(NewYorkCity(), 48, 12, 3)
	const k = 6
	for _, tc := range frozenCases(t) {
		for _, ord := range []Ordering{BasicOrdering, ZOrdering} {
			name := tc.name + "/" + ord.String()
			t.Run(name, func(t *testing.T) {
				idx, err := NewIndex(tc.users, IndexOptions{Variant: tc.variant, Ordering: ord})
				if err != nil {
					t.Fatal(err)
				}
				fz, err := idx.Freeze()
				if err != nil {
					t.Fatal(err)
				}
				if fz.Len() != idx.Len() {
					t.Fatalf("frozen Len %d, index Len %d", fz.Len(), idx.Len())
				}
				for _, sc := range tc.scenarios {
					q := Query{Scenario: sc, Psi: DefaultPsi}

					want, err := idx.ServiceValues(routes, q, 1)
					if err != nil {
						t.Fatal(err)
					}
					got, err := fz.ServiceValues(routes, q, 1)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
							t.Fatalf("%v ServiceValues[%d]: pointer %v, frozen %v", sc, i, want[i], got[i])
						}
					}
					// The concurrent batch must agree with the serial one.
					got3, err := fz.ServiceValues(routes, q, 3)
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float64bits(want[i]) != math.Float64bits(got3[i]) {
							t.Fatalf("%v ServiceValues[%d] (3 workers): pointer %v, frozen %v", sc, i, want[i], got3[i])
						}
					}

					wantTop, wantM, err := idx.TopKWithMetrics(routes, k, q)
					if err != nil {
						t.Fatal(err)
					}
					gotTop, gotM, err := fz.TopKWithMetrics(routes, k, q)
					if err != nil {
						t.Fatal(err)
					}
					compareRanked(t, sc, wantTop, gotTop)
					if wantM != gotM {
						t.Fatalf("%v TopK metrics: pointer %+v, frozen %+v", sc, wantM, gotM)
					}

					gotPar, err := fz.TopKParallel(routes, k, q, 4)
					if err != nil {
						t.Fatal(err)
					}
					compareRanked(t, sc, wantTop, gotPar)
				}
			})
		}
	}
}

func compareRanked(t *testing.T, sc Scenario, want, got []Ranked) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%v TopK: pointer returned %d results, frozen %d", sc, len(want), len(got))
	}
	for i := range want {
		if want[i].Facility.ID != got[i].Facility.ID {
			t.Fatalf("%v TopK[%d]: pointer facility %d, frozen %d", sc, i, want[i].Facility.ID, got[i].Facility.ID)
		}
		if math.Float64bits(want[i].Service) != math.Float64bits(got[i].Service) {
			t.Fatalf("%v TopK[%d]: pointer service %v, frozen %v", sc, i, want[i].Service, got[i].Service)
		}
	}
}

// TestFrozenShardedEquivalence proves the frozen sharded scatter-gather
// answers match the mutable sharded index (and through it, the single
// tree) for TopK and ServiceValues under Binary — the integral scenario
// where sharded answers are exact, across shard counts and partitioners.
func TestFrozenShardedEquivalence(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 2000, 11)
	routes := BusRoutes(ny, 40, 10, 5)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	const k = 5
	for _, shards := range []int{1, 2, 4} {
		for _, part := range []struct {
			name string
			p    Partitioner
		}{{"hash", HashPartitioner()}, {"grid", GridPartitioner()}} {
			t.Run(part.name+"/"+string(rune('0'+shards)), func(t *testing.T) {
				sidx, err := NewShardedIndex(users, ShardOptions{
					Shards: shards, Partitioner: part.p,
					Index: IndexOptions{Ordering: ZOrdering},
				})
				if err != nil {
					t.Fatal(err)
				}
				fz, err := sidx.Freeze()
				if err != nil {
					t.Fatal(err)
				}
				if fz.NumShards() != sidx.NumShards() || fz.Len() != sidx.Len() {
					t.Fatalf("frozen shards/len %d/%d, source %d/%d",
						fz.NumShards(), fz.Len(), sidx.NumShards(), sidx.Len())
				}

				want, err := sidx.TopK(routes, k, q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := fz.TopK(routes, k, q)
				if err != nil {
					t.Fatal(err)
				}
				compareRanked(t, q.Scenario, want, got)

				gotPar, err := fz.TopKParallel(routes, k, q, 4)
				if err != nil {
					t.Fatal(err)
				}
				compareRanked(t, q.Scenario, want, gotPar)

				wantVs, err := sidx.ServiceValues(routes, q, 2)
				if err != nil {
					t.Fatal(err)
				}
				gotVs, err := fz.ServiceValues(routes, q, 2)
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantVs {
					if math.Float64bits(wantVs[i]) != math.Float64bits(gotVs[i]) {
						t.Fatalf("ServiceValues[%d]: sharded %v, frozen sharded %v", i, wantVs[i], gotVs[i])
					}
				}
			})
		}
	}
}

// TestNewFrozenIndex checks the direct build path agrees with
// build-then-freeze.
func TestNewFrozenIndex(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 800, 13)
	routes := BusRoutes(ny, 16, 8, 17)
	q := Query{Scenario: Binary, Psi: DefaultPsi}

	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewFrozenIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.TopK(routes, 4, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := direct.TopK(routes, 4, q)
	if err != nil {
		t.Fatal(err)
	}
	compareRanked(t, q.Scenario, want, got)
}

// TestFrozenRejectsUnsupportedScenario mirrors the pointer tree's
// scenario validation on the frozen path.
func TestFrozenRejectsUnsupportedScenario(t *testing.T) {
	ny := NewYorkCity()
	users := Checkins(ny, 200, 5, 19)
	routes := BusRoutes(ny, 4, 6, 23)
	fz, err := NewFrozenIndex(users, IndexOptions{Variant: TwoPoint, Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fz.TopK(routes, 2, Query{Scenario: PointCount, Psi: DefaultPsi}); err == nil {
		t.Fatal("expected scenario error for TwoPoint over multipoint data")
	}
	if _, err := fz.ServiceValue(routes[0], Query{Scenario: Length, Psi: DefaultPsi}); err == nil {
		t.Fatal("expected scenario error for TwoPoint over multipoint data")
	}
}

// TestPublicCtxVariantsAcrossIndexTypes pins the promise of the one
// embedded query surface (querier.go): EVERY index type exposes
// ServiceValuesCtx/TopKCtx/TopKParallelCtx, a background context
// changes nothing, and an expired deadline aborts with
// context.DeadlineExceeded.
func TestPublicCtxVariantsAcrossIndexTypes(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 1200, 17)
	routes := BusRoutes(ny, 24, 8, 18)
	q := Query{Scenario: Binary, Psi: 300}

	apis := allFlavors(t, users)
	idx := apis[0]
	wantV, err := idx.ServiceValues(routes, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantTop, err := idx.TopK(routes, 6, q)
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	for _, api := range apis {
		t.Run(flavorName(api), func(t *testing.T) {
			vs, err := api.ServiceValuesCtx(context.Background(), routes, q, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantV {
				if vs[i] != wantV[i] {
					t.Fatalf("ServiceValuesCtx[%d] = %v, want %v", i, vs[i], wantV[i])
				}
			}
			top, err := api.TopKCtx(context.Background(), routes, 6, q)
			if err != nil {
				t.Fatal(err)
			}
			par, err := api.TopKParallelCtx(context.Background(), routes, 6, q, 3)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantTop {
				if top[i].Facility.ID != wantTop[i].Facility.ID || top[i].Service != wantTop[i].Service {
					t.Fatalf("TopKCtx[%d] = (%d, %v), want (%d, %v)", i,
						top[i].Facility.ID, top[i].Service, wantTop[i].Facility.ID, wantTop[i].Service)
				}
				if par[i] != top[i] {
					t.Fatalf("TopKParallelCtx[%d] differs from TopKCtx", i)
				}
			}
			if _, err := api.ServiceValuesCtx(expired, routes, q, 2); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("ServiceValuesCtx(expired) err = %v", err)
			}
			if _, err := api.TopKCtx(expired, routes, 6, q); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("TopKCtx(expired) err = %v", err)
			}
			if _, err := api.TopKParallelCtx(expired, routes, 6, q, 3); !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("TopKParallelCtx(expired) err = %v", err)
			}
		})
	}
}
