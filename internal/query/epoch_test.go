package query

import (
	"context"
	"math"
	"reflect"
	"testing"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// frozenEngineOver builds a frozen engine over a corpus.
func frozenEngineOver(t *testing.T, users *trajectory.Set, v tqtree.Variant, o tqtree.Ordering) *FrozenEngine {
	t.Helper()
	return engineOver(t, users.All, tqtree.Options{Variant: v, Ordering: o, Beta: 8, Bounds: testBounds})
}

// TestEpochEmptyDeltaByteIdentical is the delta-overlay regression
// anchor: an epoch with an empty delta and no tombstones must be
// byte-identical — answers AND metrics — to the plain frozen engine,
// across every variant × ordering.
func TestEpochEmptyDeltaByteIdentical(t *testing.T) {
	users := makeUsers(500, 4, 501)
	facilities := makeFacilities(24, 8, 502)
	for _, cfg := range validConfigs(true) {
		feng := frozenEngineOver(t, users, cfg.variant, cfg.ordering)
		ep, err := NewEpoch(feng, nil, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Scenario: cfg.scenario, Psi: 40}
		name := cfg.variant.String() + "/" + cfg.ordering.String() + "/" + cfg.scenario.String()

		for _, f := range facilities {
			wantV, wantM, err := feng.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			gotV, gotM, err := ep.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			if gotV != wantV || gotM != wantM {
				t.Fatalf("%s: epoch ServiceValue(%d) = (%v, %+v), frozen = (%v, %+v)",
					name, f.ID, gotV, gotM, wantV, wantM)
			}
		}

		wantVs, wantM, err := feng.ServiceValues(facilities, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		gotVs, gotM, err := ep.ServiceValuesCtx(context.Background(), facilities, p, 3)
		if err != nil {
			t.Fatal(err)
		}
		if gotM != wantM {
			t.Fatalf("%s: batch metrics = %+v, frozen = %+v", name, gotM, wantM)
		}
		for i := range wantVs {
			if gotVs[i] != wantVs[i] {
				t.Fatalf("%s: batch value[%d] = %v, frozen = %v", name, i, gotVs[i], wantVs[i])
			}
		}

		// The seed bound: an empty overlay adds nothing to the base's; and
		// the coverage walk: the same table, the same work.
		for _, f := range facilities {
			if got, want := ep.UpperBound(f, p), feng.UpperBound(f, p); got != want {
				t.Fatalf("%s: epoch UpperBound(%d) = %v, frozen = %v", name, f.ID, got, want)
			}
		}
		gotC, gotM, err := ep.Cover(facilities, p)
		if err != nil {
			t.Fatal(err)
		}
		wantC, wantM, err := feng.Cover(facilities, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotC, wantC) || gotM != wantM {
			t.Fatalf("%s: epoch Cover = %d users %+v, frozen = %d users %+v", name, len(gotC.Users), gotM, len(wantC.Users), wantM)
		}
	}
}

// epochOver splits a corpus into base/delta, tombstones a subset of the
// base, and returns the epoch together with the logical corpus set.
func epochOver(t *testing.T, users *trajectory.Set, v tqtree.Variant, o tqtree.Ordering, baseN, deadEvery int) (*Epoch, *trajectory.Set) {
	t.Helper()
	base := trajectory.MustNewSet(users.All[:baseN])
	feng := frozenEngineOver(t, base, v, o)
	delta := users.All[baseN:]
	var dead []trajectory.ID
	logical := make([]*trajectory.Trajectory, 0, users.Len())
	for i, u := range base.All {
		if deadEvery > 0 && i%deadEvery == 0 {
			dead = append(dead, u.ID)
			continue
		}
		logical = append(logical, u)
	}
	logical = append(logical, delta...)
	ep, err := NewEpoch(feng, delta, dead, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ep, trajectory.MustNewSet(logical)
}

// TestEpochMatchesFreshBuild: delta-overlay + tombstone-masked answers
// must equal a from-scratch build of the logical corpus — exactly for
// Binary (integral), within float summation tolerance otherwise.
func TestEpochMatchesFreshBuild(t *testing.T) {
	users := makeUsers(600, 4, 503)
	facilities := makeFacilities(24, 8, 504)
	for _, cfg := range validConfigs(true) {
		ep, logical := epochOver(t, users, cfg.variant, cfg.ordering, 450, 5)
		fresh := frozenEngineOver(t, logical, cfg.variant, cfg.ordering)
		p := Params{Scenario: cfg.scenario, Psi: 40}
		name := cfg.variant.String() + "/" + cfg.ordering.String() + "/" + cfg.scenario.String()

		if got, want := ep.Len(), logical.Len(); got != want {
			t.Fatalf("%s: epoch Len = %d, want %d", name, got, want)
		}
		for _, f := range facilities {
			want, _, err := fresh.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := ep.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			if cfg.scenario == service.Binary {
				if got != want {
					t.Fatalf("%s: epoch ServiceValue(%d) = %v, fresh build = %v", name, f.ID, got, want)
				}
			} else if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("%s: epoch ServiceValue(%d) = %v, fresh build = %v", name, f.ID, got, want)
			}

			// The seed bound stays sound over tombstones (which only
			// lower the value) and the overlay (whose own bound it adds).
			if ub := ep.UpperBound(f, p); ub < got {
				t.Fatalf("%s: UpperBound(%d) = %v below the exact value %v", name, f.ID, ub, got)
			}
		}
	}
}

func TestNewEpochValidation(t *testing.T) {
	users := makeUsers(100, 2, 507)
	base := trajectory.MustNewSet(users.All[:80])
	feng := frozenEngineOver(t, base, tqtree.TwoPoint, tqtree.ZOrder)

	// Tombstone naming no base trajectory.
	if _, err := NewEpoch(feng, nil, []trajectory.ID{999}, 0); err == nil {
		t.Error("tombstone for unknown id accepted")
	}
	// One base trajectory tombstoned twice.
	if _, err := NewEpoch(feng, nil, []trajectory.ID{users.All[3].ID, users.All[5].ID, users.All[3].ID}, 0); err == nil {
		t.Error("duplicate tombstone accepted")
	}
	// Duplicate id inside the delta.
	dup := []*trajectory.Trajectory{users.All[80], users.All[80]}
	if _, err := NewEpoch(feng, dup, nil, 0); err == nil {
		t.Error("duplicate delta id accepted")
	}
	// Delta id colliding with a live base trajectory.
	if _, err := NewEpoch(feng, users.All[:1], nil, 0); err == nil {
		t.Error("delta collision with live base id accepted")
	}
	// ... but re-using a tombstoned base id is the re-insert path.
	dead := []trajectory.ID{users.All[0].ID}
	if _, err := NewEpoch(feng, users.All[:1], dead, 0); err != nil {
		t.Errorf("re-insert over tombstone rejected: %v", err)
	}
}

// TestEpochScenarioValidation: a TwoPoint epoch whose delta introduces
// the first multipoint trajectory must reject non-Binary scenarios,
// exactly as a from-scratch TwoPoint build over that corpus would.
func TestEpochScenarioValidation(t *testing.T) {
	users := makeUsers(100, 2, 508) // two-point only
	base := trajectory.MustNewSet(users.All[:90])
	feng := frozenEngineOver(t, base, tqtree.TwoPoint, tqtree.ZOrder)
	multi := makeUsers(120, 5, 509).All[100:] // ids 100.. with up to 5 points
	var mp *trajectory.Trajectory
	for _, u := range multi {
		if u.Len() > 2 {
			mp = u
			break
		}
	}
	if mp == nil {
		t.Fatal("no multipoint trajectory generated")
	}
	ep, err := NewEpoch(feng, []*trajectory.Trajectory{mp}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := makeFacilities(1, 6, 510)[0]
	if _, _, err := ep.ServiceValue(f, Params{Scenario: service.PointCount, Psi: 40}); err == nil {
		t.Error("TwoPoint epoch with multipoint delta accepted PointCount")
	}
	if _, _, err := ep.ServiceValue(f, Params{Scenario: service.Binary, Psi: 40}); err != nil {
		t.Errorf("Binary rejected: %v", err)
	}
}
