package query

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

var testBounds = geo.Rect{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}

// baseEpoch builds a base over users and serves it as an epoch with
// nothing pending, as every shard of a frozen index does.
func baseEpoch(t testing.TB, users []*trajectory.Trajectory, opts tqtree.Options) *Epoch {
	t.Helper()
	f, err := tqtree.BuildFrozen(users, opts)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := NewEpoch(f, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// makeUsers generates locality-clustered user trajectories.
func makeUsers(n, maxPts int, seed int64) *trajectory.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Trajectory, n)
	for i := range out {
		npts := 2
		if maxPts > 2 {
			npts += rng.Intn(maxPts - 1)
		}
		ax := rng.Float64() * 1000
		ay := rng.Float64() * 1000
		pts := make([]geo.Point, npts)
		for j := range pts {
			pts[j] = geo.Pt(
				clampF(ax+rng.NormFloat64()*80, 0, 1000),
				clampF(ay+rng.NormFloat64()*80, 0, 1000),
			)
		}
		out[i] = trajectory.MustNew(trajectory.ID(i), pts)
	}
	return trajectory.MustNewSet(out)
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// makeFacilities generates facilities as short routes of nearby stops.
func makeFacilities(n, stops int, seed int64) []*trajectory.Facility {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*trajectory.Facility, n)
	for i := range out {
		ax := rng.Float64() * 1000
		ay := rng.Float64() * 1000
		dirx := rng.NormFloat64()
		diry := rng.NormFloat64()
		pts := make([]geo.Point, stops)
		for j := range pts {
			t := float64(j) * 30
			pts[j] = geo.Pt(
				clampF(ax+dirx*t+rng.NormFloat64()*10, 0, 1000),
				clampF(ay+diry*t+rng.NormFloat64()*10, 0, 1000),
			)
		}
		out[i] = trajectory.MustNewFacility(trajectory.ID(i), pts)
	}
	return out
}

type config struct {
	variant  tqtree.Variant
	ordering tqtree.Ordering
	scenario service.Scenario
}

// validConfigs enumerates every (variant, ordering, scenario) combination
// that is exact for the given data shape.
func validConfigs(multipoint bool) []config {
	var out []config
	for _, v := range []tqtree.Variant{tqtree.TwoPoint, tqtree.Segmented, tqtree.FullTrajectory} {
		for _, o := range []tqtree.Ordering{tqtree.Basic, tqtree.ZOrder} {
			for _, sc := range []service.Scenario{service.Binary, service.PointCount, service.Length} {
				if multipoint && v == tqtree.TwoPoint && sc != service.Binary {
					continue
				}
				out = append(out, config{v, o, sc})
			}
		}
	}
	return out
}

func TestServiceValueMatchesOracleTwoPointData(t *testing.T) {
	users := makeUsers(400, 2, 101)
	facilities := makeFacilities(20, 8, 102)
	psi := 35.0
	for _, cfg := range validConfigs(false) {
		ep := baseEpoch(t, users.All, tqtree.Options{
			Variant: cfg.variant, Ordering: cfg.ordering, Beta: 8, Bounds: testBounds,
		})
		p := Params{Scenario: cfg.scenario, Psi: psi}
		for _, f := range facilities {
			got, _, err := ep.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			want := ExactServiceValue(cfg.variant, cfg.scenario, users, f.Stops, psi)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("%v/%v/%v facility %d: got %v, want %v",
					cfg.variant, cfg.ordering, cfg.scenario, f.ID, got, want)
			}
		}
	}
}

func TestServiceValueMatchesOracleMultipointData(t *testing.T) {
	users := makeUsers(300, 6, 103)
	facilities := makeFacilities(15, 10, 104)
	psi := 40.0
	for _, cfg := range validConfigs(true) {
		ep := baseEpoch(t, users.All, tqtree.Options{
			Variant: cfg.variant, Ordering: cfg.ordering, Beta: 8, Bounds: testBounds,
		})
		p := Params{Scenario: cfg.scenario, Psi: psi}
		for _, f := range facilities {
			got, _, err := ep.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			want := ExactServiceValue(cfg.variant, cfg.scenario, users, f.Stops, psi)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("%v/%v/%v facility %d: got %v, want %v",
					cfg.variant, cfg.ordering, cfg.scenario, f.ID, got, want)
			}
		}
	}
}

func TestServiceValueRandomizedPsiSweep(t *testing.T) {
	users := makeUsers(200, 4, 105)
	rng := rand.New(rand.NewSource(106))
	for trial := 0; trial < 20; trial++ {
		psi := 1 + rng.Float64()*150
		f := makeFacilities(1, 1+rng.Intn(30), int64(trial)+200)[0]
		for _, cfg := range validConfigs(true) {
			ep := baseEpoch(t, users.All, tqtree.Options{
				Variant: cfg.variant, Ordering: cfg.ordering, Beta: 4, Bounds: testBounds,
			})
			got, _, err := ep.ServiceValue(f, Params{Scenario: cfg.scenario, Psi: psi})
			if err != nil {
				t.Fatal(err)
			}
			want := ExactServiceValue(cfg.variant, cfg.scenario, users, f.Stops, psi)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("psi=%v %v/%v/%v: got %v, want %v",
					psi, cfg.variant, cfg.ordering, cfg.scenario, got, want)
			}
		}
	}
}

// TestTopKMatchesExhaustiveAndBaseline: the paper's best-first TopK ranks
// the same values as the exhaustive answer — Results over one exact
// ServiceValues pass, which is every public index type's top-k — and as
// the baseline, at every k.
func TestTopKMatchesExhaustiveAndBaseline(t *testing.T) {
	users := makeUsers(500, 2, 107)
	facilities := makeFacilities(40, 8, 108)
	psi := 30.0
	for _, cfg := range validConfigs(false) {
		ep := baseEpoch(t, users.All, tqtree.Options{
			Variant: cfg.variant, Ordering: cfg.ordering, Beta: 8, Bounds: testBounds,
		})
		bl := NewBaseline(users, cfg.variant)
		p := Params{Scenario: cfg.scenario, Psi: psi}
		for _, k := range []int{1, 4, 10, 40, 100} {
			best, _, err := BestFirstTopK(ep.Base(), facilities, k, p)
			if err != nil {
				t.Fatal(err)
			}
			vals, _, err := ep.ServiceValuesCtx(context.Background(), facilities, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			exh := Results(facilities, vals, k)
			blres, err := bl.TopK(facilities, k, p)
			if err != nil {
				t.Fatal(err)
			}
			wantLen := k
			if wantLen > len(facilities) {
				wantLen = len(facilities)
			}
			if len(best) != wantLen || len(exh) != wantLen || len(blres) != wantLen {
				t.Fatalf("%+v k=%d: lengths %d/%d/%d want %d",
					cfg, k, len(best), len(exh), len(blres), wantLen)
			}
			for i := range best {
				if math.Abs(best[i].Service-exh[i].Service) > 1e-6*(1+exh[i].Service) {
					t.Fatalf("%+v k=%d rank %d: best-first %v != exhaustive %v",
						cfg, k, i, best[i].Service, exh[i].Service)
				}
				if math.Abs(best[i].Service-blres[i].Service) > 1e-6*(1+blres[i].Service) {
					t.Fatalf("%+v k=%d rank %d: best-first %v != baseline %v",
						cfg, k, i, best[i].Service, blres[i].Service)
				}
			}
			// Service values must be non-increasing.
			for i := 1; i < len(best); i++ {
				if best[i].Service > best[i-1].Service+1e-9 {
					t.Fatalf("top-k not sorted at %d", i)
				}
			}
		}
	}
}

func TestTopKMultipointAgainstBaseline(t *testing.T) {
	users := makeUsers(300, 6, 109)
	facilities := makeFacilities(25, 12, 110)
	psi := 45.0
	for _, cfg := range validConfigs(true) {
		ep := baseEpoch(t, users.All, tqtree.Options{
			Variant: cfg.variant, Ordering: cfg.ordering, Beta: 8, Bounds: testBounds,
		})
		bl := NewBaseline(users, cfg.variant)
		p := Params{Scenario: cfg.scenario, Psi: psi}
		best, _, err := BestFirstTopK(ep.Base(), facilities, 5, p)
		if err != nil {
			t.Fatal(err)
		}
		blres, err := bl.TopK(facilities, 5, p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range best {
			if math.Abs(best[i].Service-blres[i].Service) > 1e-6*(1+blres[i].Service) {
				t.Fatalf("%+v rank %d: %v != baseline %v",
					cfg, i, best[i].Service, blres[i].Service)
			}
		}
	}
}

// masksByID reads facility i's rows of a coverage table as user ID →
// mask, failing when a user appears in two rows.
func masksByID(t *testing.T, cov *service.CoverTable, i int) map[trajectory.ID]service.Mask {
	t.Helper()
	out := map[trajectory.ID]service.Mask{}
	for _, r := range cov.Rows(i) {
		id := cov.Users[r.Slot].ID
		if _, dup := out[id]; dup {
			t.Fatalf("facility %d: user %d has two rows", i, id)
		}
		out[id] = r.Mask
	}
	return out
}

// checkCoverage compares an epoch's coverage table of a facility batch
// with the brute-force mask of every user: a live user's covered bits must
// be exactly its served points among points (nil: all of them), a
// tombstoned user must not appear, and every user the table holds is
// covered by some facility.
func checkCoverage(t *testing.T, name string, ep *Epoch, users, logical *trajectory.Set, facilities []*trajectory.Facility, p Params, points func(u *trajectory.Trajectory) []int) {
	t.Helper()
	cov, _, err := ep.Cover(facilities, p)
	if err != nil {
		t.Fatal(err)
	}
	if cov.Len() != len(facilities) {
		t.Fatalf("%s: %d facilities' rows, want %d", name, cov.Len(), len(facilities))
	}
	used := make([]bool, len(cov.Users))
	for i, f := range facilities {
		for _, r := range cov.Rows(i) {
			used[r.Slot] = true
		}
		got := masksByID(t, cov, i)
		for id := range got {
			if logical.ByID(id) == nil {
				t.Fatalf("%s facility %d: user %d is not in the logical corpus", name, f.ID, id)
			}
		}
		for _, u := range logical.All {
			want := service.MaskOf(u, f.Stops, p.Psi)
			m := got[u.ID]
			if m == nil {
				m = service.NewMask(u.Len())
			}
			for i := 0; i < u.Len(); i++ {
				if m.Get(i) && !want.Get(i) {
					t.Fatalf("%s facility %d user %d: point %d covered, not served", name, f.ID, u.ID, i)
				}
			}
			for _, i := range points(u) {
				if m.Get(i) != want.Get(i) {
					t.Fatalf("%s facility %d user %d point %d: got %v want %v", name, f.ID, u.ID, i, m.Get(i), want.Get(i))
				}
			}
		}
	}
	for s, ok := range used {
		if !ok {
			t.Fatalf("%s: user %d holds a slot and no row", name, cov.Users[s].ID)
		}
	}
	if len(logical.All) == users.Len() {
		t.Fatalf("%s: no user was tombstoned", name)
	}
}

// TestCoverageMatchesDirectMask: the coverage table of a Segmented or
// FullTrajectory epoch — tombstones skipped, delta scanned — marks every
// served point of every logical user, and nothing else, in one row per
// user a facility covers.
func TestCoverageMatchesDirectMask(t *testing.T) {
	users := makeUsers(200, 5, 111)
	facilities := makeFacilities(10, 10, 112)
	every := func(u *trajectory.Trajectory) []int {
		idx := make([]int, u.Len())
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	for _, variant := range []tqtree.Variant{tqtree.Segmented, tqtree.FullTrajectory} {
		for _, ordering := range []tqtree.Ordering{tqtree.Basic, tqtree.ZOrder} {
			ep, logical := epochOver(t, users, variant, ordering, 150, 4)
			p := Params{Scenario: service.PointCount, Psi: 50}
			checkCoverage(t, variant.String()+"/"+ordering.String(), ep, users, logical, facilities, p, every)
		}
	}
}

// TestCoverageTwoPointEndpointsExact: TwoPoint coverage marks exactly the
// served sources and destinations — base and delta alike — and never an
// interior point.
func TestCoverageTwoPointEndpointsExact(t *testing.T) {
	users := makeUsers(200, 5, 113)
	facilities := makeFacilities(10, 10, 114)
	endpoints := func(u *trajectory.Trajectory) []int { return []int{0, u.Len() - 1} }
	for _, ordering := range []tqtree.Ordering{tqtree.Basic, tqtree.ZOrder} {
		ep, logical := epochOver(t, users, tqtree.TwoPoint, ordering, 150, 4)
		p := Params{Scenario: service.Binary, Psi: 50}
		checkCoverage(t, "twopoint/"+ordering.String(), ep, users, logical, facilities, p, endpoints)
		cov, _, err := ep.Cover(facilities, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range facilities {
			for _, r := range cov.Rows(i) {
				for j := 1; j < cov.Users[r.Slot].Len()-1; j++ {
					if r.Mask.Get(j) {
						t.Fatalf("facility %d user %d: interior point %d covered", f.ID, cov.Users[r.Slot].ID, j)
					}
				}
			}
		}
	}
}

func TestBaselineCoverageMatchesDirect(t *testing.T) {
	users := makeUsers(200, 5, 115)
	f := makeFacilities(1, 15, 116)[0]
	psi := 60.0
	bl := NewBaseline(users, tqtree.FullTrajectory)
	cov, err := bl.Cover([]*trajectory.Facility{f}, Params{Scenario: service.PointCount, Psi: psi})
	if err != nil {
		t.Fatal(err)
	}
	got := masksByID(t, cov, 0)
	for _, u := range users.All {
		want := service.MaskOf(u, f.Stops, psi)
		m := got[u.ID]
		if m == nil {
			m = service.NewMask(u.Len())
		}
		for i := 0; i < u.Len(); i++ {
			if m.Get(i) != want.Get(i) {
				t.Fatalf("user %d point %d coverage mismatch", u.ID, i)
			}
		}
	}
}

func TestTopKEdgeCases(t *testing.T) {
	users := makeUsers(50, 2, 117)
	facilities := makeFacilities(5, 4, 118)
	ep := baseEpoch(t, users.All, tqtree.Options{Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Bounds: testBounds})
	p := Params{Scenario: service.Binary, Psi: 20}

	if res, _, err := BestFirstTopK(ep.Base(), facilities, 0, p); err != nil || len(res) != 0 {
		t.Errorf("k=0: %v, %v", res, err)
	}
	if res, _, err := BestFirstTopK(ep.Base(), nil, 3, p); err != nil || len(res) != 0 {
		t.Errorf("no facilities: %v, %v", res, err)
	}
	if res, _, err := BestFirstTopK(ep.Base(), facilities, 100, p); err != nil || len(res) != 5 {
		t.Errorf("k>n returned %d results (err %v), want 5", len(res), err)
	}
	if _, _, err := BestFirstTopK(ep.Base(), facilities, 3, Params{Scenario: service.Scenario(9), Psi: 1}); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, _, err := BestFirstTopK(ep.Base(), facilities, 3, Params{Scenario: service.Binary, Psi: -1}); err == nil {
		t.Error("negative psi accepted")
	}
}

func TestScenarioValidationOnMultipointTwoPoint(t *testing.T) {
	users := makeUsers(50, 5, 119)
	ep := baseEpoch(t, users.All, tqtree.Options{Variant: tqtree.TwoPoint, Bounds: testBounds})
	f := makeFacilities(1, 4, 120)[0]
	if _, _, err := ep.ServiceValue(f, Params{Scenario: service.PointCount, Psi: 10}); err == nil {
		t.Error("TwoPoint tree over multipoint data accepted PointCount query")
	}
}

func TestFarAwayFacilityZeroService(t *testing.T) {
	users := makeUsers(100, 3, 121)
	far := trajectory.MustNewFacility(1, []geo.Point{geo.Pt(1e6, 1e6), geo.Pt(1e6+10, 1e6)})
	ep := baseEpoch(t, users.All, tqtree.Options{Variant: tqtree.FullTrajectory, Ordering: tqtree.ZOrder, Bounds: testBounds})
	for sc := service.Binary; sc <= service.Length; sc++ {
		got, _, err := ep.ServiceValue(far, Params{Scenario: sc, Psi: 50})
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("scenario %v: far facility service %v, want 0", sc, got)
		}
	}
}

func TestMetricsPopulated(t *testing.T) {
	users := makeUsers(500, 2, 122)
	facilities := makeFacilities(20, 8, 123)
	ep := baseEpoch(t, users.All, tqtree.Options{Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds})
	_, m, err := BestFirstTopK(ep.Base(), facilities, 5, Params{Scenario: service.Binary, Psi: 30})
	if err != nil {
		t.Fatal(err)
	}
	if m.Relaxations == 0 {
		t.Error("TopK reported zero relaxations")
	}
	if m.NodesVisited == 0 {
		t.Error("TopK reported zero node visits")
	}
}

// TestBaselineModesAgree: the paper's BL, which rescans every candidate
// user, values each facility as the sum over its Baseline.Cover rows of
// the masks the range hits set.
func TestBaselineModesAgree(t *testing.T) {
	users := makeUsers(300, 5, 140)
	facilities := makeFacilities(10, 8, 141)
	for _, variant := range []tqtree.Variant{tqtree.TwoPoint, tqtree.Segmented, tqtree.FullTrajectory} {
		bl := NewBaseline(users, variant)
		for sc := service.Binary; sc <= service.Length; sc++ {
			p := Params{Scenario: sc, Psi: 45}
			cov, err := bl.Cover(facilities, p)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range facilities {
				lit, err := bl.ServiceValue(f, p)
				if err != nil {
					t.Fatal(err)
				}
				var msk float64
				for _, r := range cov.Rows(i) {
					msk += ObjectiveFromMask(variant, sc, cov.Users[r.Slot], r.Mask)
				}
				if math.Abs(lit-msk) > 1e-9 {
					t.Fatalf("%v/%v facility %d: literal %v != masked %v",
						variant, sc, f.ID, lit, msk)
				}
			}
		}
	}
}

// TestServedUsersMatchesOracle: ServedUsers over an epoch's coverage —
// tombstones and a delta included — lists every logical user with
// positive service and no other, with the brute-force value, best first.
func TestServedUsersMatchesOracle(t *testing.T) {
	users := makeUsers(300, 4, 130)
	f := makeFacilities(1, 12, 131)[0]
	psi := 60.0
	for _, cfg := range validConfigs(true) {
		name := cfg.variant.String() + "/" + cfg.ordering.String() + "/" + cfg.scenario.String()
		ep, logical := epochOver(t, users, cfg.variant, cfg.ordering, 220, 5)
		cov, _, err := ep.Cover([]*trajectory.Facility{f}, Params{Scenario: cfg.scenario, Psi: psi})
		if err != nil {
			t.Fatal(err)
		}
		got := ServedUsers(cov, cfg.variant, cfg.scenario)
		// Oracle: every user with positive service, no others.
		want := map[trajectory.ID]float64{}
		for _, u := range logical.All {
			if v := ObjectiveFromMask(cfg.variant, cfg.scenario, u, service.MaskOf(u, f.Stops, psi)); v > 0 {
				want[u.ID] = v
			}
		}
		if len(want) == 0 || len(got) != len(want) {
			t.Fatalf("%s: ServedUsers returned %d users, oracle found %d", name, len(got), len(want))
		}
		for i, us := range got {
			wv, ok := want[us.User]
			if !ok {
				t.Fatalf("%s: user %d not served per oracle", name, us.User)
			}
			if math.Abs(us.Value-wv) > 1e-9 {
				t.Fatalf("%s: user %d value %v, oracle %v", name, us.User, us.Value, wv)
			}
			if i > 0 && (got[i].Value > got[i-1].Value || got[i].Value == got[i-1].Value && got[i].User < got[i-1].User) {
				t.Fatalf("%s: ServedUsers not sorted at %d", name, i)
			}
		}
	}
}

func TestPackUnpackRef(t *testing.T) {
	cases := []struct{ ord, idx int }{{0, 0}, {1, 2}, {357138, 77}, {1<<31 - 1, 65535}}
	for _, c := range cases {
		ord, idx := unpackRef(packRef(c.ord, c.idx))
		if int(ord) != c.ord || idx != c.idx {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", c.ord, c.idx, ord, idx)
		}
	}
}
