package bench

import (
	"fmt"
	"sort"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// expBound records how tight the seed upper bound is — the bound the
// paper's best-first search starts every facility from, and the only one
// a sharded or distributed top-k could prune with — over the N, k and ψ
// sweeps of the kMaxRRST figures on NYT (two-point, Binary) and BJG
// (segmented, PointCount). Per row: the median and the smallest
// UB/exact over the facilities that serve anyone, the rank gap at k (how
// many facilities beyond k have a bound that could still displace the
// k-th exact value, i.e. what a one-at-a-time best-first search must
// evaluate on top of its answer), and the facilities the bound could cut:
// N − k − gap, those it ranks below the k-th value. The served top-k
// evaluates every facility because that count is 0 on every row; a bound
// earns its way back into it by a row where it is not. Every series is a
// count or a ratio of this run's corpus, hence informational in -diff.
func expBound(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "bound", Title: "seed upper bound tightness and what it could cut (one TQ(Z) tree)",
		XLabel: "dataset sweep", YLabel: "ratio or count",
		Series: []Series{
			{Method: "ub/exact p50 (n)"}, {Method: "ub/exact min (n)"},
			{Method: "rank gap at k (n)"}, {Method: "cuttable by bound (n)"},
		},
	}
	for _, ds := range []struct {
		name, kind, city string
		paperN           int
		variant          tqtree.Variant
		scenario         service.Scenario
	}{
		{"NYT", dsNYT, "ny", datagen.NYT1Day, tqtree.TwoPoint, service.Binary},
		{"BJG", dsBJG, "bj", datagen.BJGTrajectories, tqtree.Segmented, service.PointCount},
	} {
		eng := ctx.Engine(ds.kind, ds.paperN, ds.variant, tqtree.ZOrder)
		row := func(tick string, fs []*trajectory.Facility, k int, p query.Params) error {
			ys, err := boundRow(eng, fs, k, p)
			if err != nil {
				return err
			}
			t.XTicks = append(t.XTicks, ds.name+" "+tick)
			appendRow(t, ys...)
			return nil
		}
		p := ctx.Params(ds.scenario)
		for _, n := range facilityAxis {
			if err := row(fmt.Sprintf("N=%d", n), ctx.Routes(ds.city, n, defaultStops), defaultK, p); err != nil {
				return nil, err
			}
		}
		fs := ctx.Routes(ds.city, defaultFacilities, defaultStops)
		for _, k := range kAxis {
			if err := row(fmt.Sprintf("k=%d", k), fs, k, p); err != nil {
				return nil, err
			}
		}
		for _, psi := range psiAxis {
			if err := row(fmt.Sprintf("psi=%.0f", psi), fs, defaultK, query.Params{Scenario: ds.scenario, Psi: psi}); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// boundRow is one row of expBound: {median UB/exact, min UB/exact, rank
// gap at k, facilities the bound ranks below the k-th value}.
func boundRow(eng *query.Engine, fs []*trajectory.Facility, k int, p query.Params) ([]float64, error) {
	exact, _, err := eng.ServiceValues(fs, p, 0)
	if err != nil {
		return nil, err
	}
	bounds := make([]float64, len(fs))
	var ratios []float64
	for i, f := range fs {
		bounds[i] = eng.UpperBound(f, p)
		if exact[i] > 0 {
			ratios = append(ratios, bounds[i]/exact[i])
		}
	}
	sort.Float64s(ratios)
	var p50, lo float64
	if len(ratios) > 0 {
		p50, lo = ratios[len(ratios)/2], ratios[0]
	}
	k = min(k, len(fs))
	kth := query.Results(fs, exact, k)[k-1]
	needed := 0
	for i, f := range fs {
		if bounds[i] > kth.Service || (bounds[i] == kth.Service && f.ID <= kth.Facility.ID) {
			needed++
		}
	}
	return []float64{p50, lo, float64(needed - k), float64(len(fs) - needed)}, nil
}
