package trajcover

// One benchmark per table/figure of the paper's evaluation (Section VI).
// Each BenchmarkFigNN mirrors the corresponding experiment in
// internal/bench (which cmd/tqbench uses for full parameter sweeps); here
// the axes are subsampled so `go test -bench=.` finishes in minutes.
//
// Dataset sizes scale with TRAJCOVER_BENCH_SCALE (default 0.01 — about
// 3.5k trips for the NYT-1day stand-in). Quality figures (10b/10d, 11a/
// 11b) report their metric through b.ReportMetric next to the timing.

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

var (
	benchOnce sync.Once
	benchCtx  *bench.Context
)

func ctx() *bench.Context {
	benchOnce.Do(func() {
		scale := 0.01
		if s := os.Getenv("TRAJCOVER_BENCH_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		benchCtx = bench.NewContext(bench.Config{Scale: scale, Seed: 1})
	})
	return benchCtx
}

var benchDays = []struct {
	label string
	size  int
}{
	{"0.5d", datagen.NYTHalfDay},
	{"1d", datagen.NYT1Day},
	{"2d", datagen.NYT2Days},
	{"3d", datagen.NYT3Days},
}

const (
	benchStops      = 32
	benchFacilities = 128
	benchK          = 8
)

func benchParams(sc service.Scenario) query.Params {
	return query.Params{Scenario: sc, Psi: datagen.DefaultPsi}
}

// serviceValueMethods yields the (name, fn) pairs of Fig 6's three
// methods for a given dataset size.
func serviceValueMethods(c *bench.Context, paperN int, fs []*trajectory.Facility) []struct {
	name string
	fn   func(b *testing.B)
} {
	p := benchParams(service.Binary)
	bl := c.Baseline("nyt", paperN, tqtree.TwoPoint)
	idxB := c.Index("nyt", paperN, tqtree.TwoPoint, tqtree.Basic)
	idxZ := c.Index("nyt", paperN, tqtree.TwoPoint, tqtree.ZOrder)
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bl.ServiceValue(fs[i%len(fs)], p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"TQ(B)", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := idxB.ServiceValue(fs[i%len(fs)], p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"TQ(Z)", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := idxZ.ServiceValue(fs[i%len(fs)], p); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// BenchmarkFig6aServiceValueUsers — Fig 6a: single-facility service-value
// time for growing NYT datasets (0.5–3 days of trips).
func BenchmarkFig6aServiceValueUsers(b *testing.B) {
	c := ctx()
	fs := c.Routes("ny", benchFacilities, benchStops)
	for _, d := range benchDays {
		for _, m := range serviceValueMethods(c, d.size, fs) {
			b.Run(fmt.Sprintf("users=%s/method=%s", d.label, m.name), m.fn)
		}
	}
}

// BenchmarkFig6bServiceValueStops — Fig 6b: single-facility service-value
// time as routes grow from 8 to 512 stops.
func BenchmarkFig6bServiceValueStops(b *testing.B) {
	c := ctx()
	for _, stops := range []int{8, 32, 128, 512} {
		fs := c.Routes("ny", benchFacilities, stops)
		for _, m := range serviceValueMethods(c, datagen.NYT1Day, fs) {
			b.Run(fmt.Sprintf("stops=%d/method=%s", stops, m.name), m.fn)
		}
	}
}

// topKMethods yields the (name, fn) pairs of the Fig 7/8/9 methods.
func topKMethods(c *bench.Context, kind string, paperN int, v tqtree.Variant, sc service.Scenario, fs []*trajectory.Facility, k int) []struct {
	name string
	fn   func(b *testing.B)
} {
	p := benchParams(sc)
	bl := c.Baseline(kind, paperN, v)
	baseB := c.Index(kind, paperN, v, tqtree.Basic).Base(0)
	baseZ := c.Index(kind, paperN, v, tqtree.ZOrder).Base(0)
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"BL", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bl.TopK(fs, k, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"TQ(B)", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := query.BestFirstTopK(baseB, fs, k, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"TQ(Z)", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := query.BestFirstTopK(baseZ, fs, k, p); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

// BenchmarkFig7aTopKUsers — Fig 7a: kMaxRRST time for growing NYT sizes.
func BenchmarkFig7aTopKUsers(b *testing.B) {
	c := ctx()
	fs := c.Routes("ny", benchFacilities, benchStops)
	for _, d := range benchDays {
		for _, m := range topKMethods(c, "nyt", d.size, tqtree.TwoPoint, service.Binary, fs, benchK) {
			b.Run(fmt.Sprintf("users=%s/method=%s", d.label, m.name), m.fn)
		}
	}
}

// BenchmarkFig7bTopKK — Fig 7b: kMaxRRST time versus k. The baseline is
// flat in k; the TQ-tree methods grow slightly.
func BenchmarkFig7bTopKK(b *testing.B) {
	c := ctx()
	fs := c.Routes("ny", benchFacilities, benchStops)
	for _, k := range []int{4, 32} {
		for _, m := range topKMethods(c, "nyt", datagen.NYT1Day, tqtree.TwoPoint, service.Binary, fs, k) {
			b.Run(fmt.Sprintf("k=%d/method=%s", k, m.name), m.fn)
		}
	}
}

// BenchmarkFig7cTopKStops — Fig 7c: kMaxRRST time versus stops per route.
func BenchmarkFig7cTopKStops(b *testing.B) {
	c := ctx()
	for _, stops := range []int{8, 128, 512} {
		fs := c.Routes("ny", benchFacilities, stops)
		for _, m := range topKMethods(c, "nyt", datagen.NYT1Day, tqtree.TwoPoint, service.Binary, fs, benchK) {
			b.Run(fmt.Sprintf("stops=%d/method=%s", stops, m.name), m.fn)
		}
	}
}

// BenchmarkFig7dTopKFacilities — Fig 7d: kMaxRRST time versus candidate
// facility count.
func BenchmarkFig7dTopKFacilities(b *testing.B) {
	c := ctx()
	for _, n := range []int{16, 128, 512} {
		fs := c.Routes("ny", n, benchStops)
		for _, m := range topKMethods(c, "nyt", datagen.NYT1Day, tqtree.TwoPoint, service.Binary, fs, benchK) {
			b.Run(fmt.Sprintf("facilities=%d/method=%s", n, m.name), m.fn)
		}
	}
}

// BenchmarkFig8aMultipointStops — Fig 8a: the six NYF multipoint methods
// (Segmented and FullTrajectory × BL/TQ(B)/TQ(Z)) versus stops.
func BenchmarkFig8aMultipointStops(b *testing.B) {
	c := ctx()
	for _, stops := range []int{32, 256} {
		fs := c.Routes("ny", benchFacilities, stops)
		for _, v := range []struct {
			prefix  string
			variant tqtree.Variant
		}{{"S", tqtree.Segmented}, {"F", tqtree.FullTrajectory}} {
			for _, m := range topKMethods(c, "nyf", datagen.NYFTrajectories, v.variant, service.PointCount, fs, benchK) {
				b.Run(fmt.Sprintf("stops=%d/method=%s-%s", stops, v.prefix, m.name), m.fn)
			}
		}
	}
}

// BenchmarkFig8bMultipointFacilities — Fig 8b: the six NYF methods versus
// facility count.
func BenchmarkFig8bMultipointFacilities(b *testing.B) {
	c := ctx()
	for _, n := range []int{32, 256} {
		fs := c.Routes("ny", n, benchStops)
		for _, v := range []struct {
			prefix  string
			variant tqtree.Variant
		}{{"S", tqtree.Segmented}, {"F", tqtree.FullTrajectory}} {
			for _, m := range topKMethods(c, "nyf", datagen.NYFTrajectories, v.variant, service.PointCount, fs, benchK) {
				b.Run(fmt.Sprintf("facilities=%d/method=%s-%s", n, v.prefix, m.name), m.fn)
			}
		}
	}
}

// BenchmarkFig9aGeolifeStops — Fig 9a: segmented BJG traces versus stops.
func BenchmarkFig9aGeolifeStops(b *testing.B) {
	c := ctx()
	for _, stops := range []int{32, 256} {
		fs := c.Routes("bj", benchFacilities, stops)
		for _, m := range topKMethods(c, "bjg", datagen.BJGTrajectories, tqtree.Segmented, service.PointCount, fs, benchK) {
			b.Run(fmt.Sprintf("stops=%d/method=%s", stops, m.name), m.fn)
		}
	}
}

// BenchmarkFig9bGeolifeFacilities — Fig 9b: segmented BJG traces versus
// facility count.
func BenchmarkFig9bGeolifeFacilities(b *testing.B) {
	c := ctx()
	for _, n := range []int{32, 256} {
		fs := c.Routes("bj", n, benchStops)
		for _, m := range topKMethods(c, "bjg", datagen.BJGTrajectories, tqtree.Segmented, service.PointCount, fs, benchK) {
			b.Run(fmt.Sprintf("facilities=%d/method=%s", n, m.name), m.fn)
		}
	}
}

// maxCovMethods yields the four Fig 10 solvers. Each reports the
// users-served quality metric (Fig 10b/10d) beside its timing.
func maxCovMethodBenches(c *bench.Context, paperN int, fs []*trajectory.Facility) []struct {
	name string
	fn   func(b *testing.B)
} {
	p := benchParams(service.Binary)
	bl := c.Baseline("nyt", paperN, tqtree.TwoPoint)
	srcB := c.Index("nyt", paperN, tqtree.TwoPoint, tqtree.Basic).Source()
	srcZ := c.Index("nyt", paperN, tqtree.TwoPoint, tqtree.ZOrder).Source()
	report := func(b *testing.B, served int) {
		b.ReportMetric(float64(served), "users-served")
	}
	return []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"G(BL)", func(b *testing.B) {
			var served int
			for i := 0; i < b.N; i++ {
				r, err := maxcov.Greedy(bl, fs, benchK, p)
				if err != nil {
					b.Fatal(err)
				}
				served = r.UsersServed
			}
			report(b, served)
		}},
		{"G-TQ(B)", func(b *testing.B) {
			var served int
			for i := 0; i < b.N; i++ {
				r, err := maxcov.TwoStep(srcB, fs, benchK, 0, p)
				if err != nil {
					b.Fatal(err)
				}
				served = r.UsersServed
			}
			report(b, served)
		}},
		{"G-TQ(Z)", func(b *testing.B) {
			var served int
			for i := 0; i < b.N; i++ {
				r, err := maxcov.TwoStep(srcZ, fs, benchK, 0, p)
				if err != nil {
					b.Fatal(err)
				}
				served = r.UsersServed
			}
			report(b, served)
		}},
		{"Gn-TQ(Z)", func(b *testing.B) {
			var served int
			for i := 0; i < b.N; i++ {
				r, err := maxcov.Genetic(srcZ, fs, benchK, p,
					maxcov.GeneticOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				served = r.UsersServed
			}
			report(b, served)
		}},
	}
}

// BenchmarkFig10MaxCovUsers — Fig 10a (timing) and Fig 10b (users served,
// reported as a metric) versus dataset size.
func BenchmarkFig10MaxCovUsers(b *testing.B) {
	c := ctx()
	fs := c.Routes("ny", benchFacilities, benchStops)
	for _, d := range []struct {
		label string
		size  int
	}{{"0.5d", datagen.NYTHalfDay}, {"3d", datagen.NYT3Days}} {
		for _, m := range maxCovMethodBenches(c, d.size, fs) {
			b.Run(fmt.Sprintf("users=%s/method=%s", d.label, m.name), m.fn)
		}
	}
}

// BenchmarkFig10MaxCovFacilities — Fig 10c (timing) and Fig 10d (users
// served) versus facility count.
func BenchmarkFig10MaxCovFacilities(b *testing.B) {
	c := ctx()
	for _, n := range []int{16, 256} {
		fs := c.Routes("ny", n, benchStops)
		for _, m := range maxCovMethodBenches(c, datagen.NYT1Day, fs) {
			b.Run(fmt.Sprintf("facilities=%d/method=%s", n, m.name), m.fn)
		}
	}
}

// BenchmarkFig11ApproxRatio — Fig 11a/11b: the greedy and genetic
// solutions against exact enumeration (k=4; see EXPERIMENTS.md), with the
// achieved approximation ratio reported as a metric.
func BenchmarkFig11ApproxRatio(b *testing.B) {
	c := ctx()
	p := benchParams(service.Binary)
	for _, n := range []int{16, 32} {
		fs := c.Routes("ny", n, benchStops)
		src := c.Index("nyt", datagen.NYT1Day, tqtree.TwoPoint, tqtree.ZOrder).Source()
		exact, err := maxcov.Exact(src, fs, 4, p)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("facilities=%d/method=G-TQ(Z)", n), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := maxcov.TwoStep(src, fs, 4, 0, p)
				if err != nil {
					b.Fatal(err)
				}
				if exact.Value > 0 {
					ratio = r.Value / exact.Value
				} else {
					ratio = 1
				}
			}
			b.ReportMetric(ratio, "approx-ratio")
		})
		b.Run(fmt.Sprintf("facilities=%d/method=Gn-TQ(Z)", n), func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := maxcov.Genetic(src, fs, 4, p, maxcov.GeneticOptions{Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				if exact.Value > 0 {
					ratio = r.Value / exact.Value
				} else {
					ratio = 1
				}
			}
			b.ReportMetric(ratio, "approx-ratio")
		})
	}
}

// BenchmarkIndexConstruction — §VI.B.4: TQ(B) and TQ(Z) build times for
// growing NYT datasets.
func BenchmarkIndexConstruction(b *testing.B) {
	c := ctx()
	for _, d := range benchDays {
		users := c.Users("nyt", d.size)
		for _, o := range []tqtree.Ordering{tqtree.Basic, tqtree.ZOrder} {
			name := "TQ(B)"
			if o == tqtree.ZOrder {
				name = "TQ(Z)"
			}
			b.Run(fmt.Sprintf("users=%s/index=%s", d.label, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := tqtree.BuildFrozen(users.All, tqtree.Options{
						Variant: tqtree.TwoPoint, Ordering: o,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkAblationBeta — design-choice ablation: the effect of the block
// size β on TQ(Z) query time (DESIGN.md §5).
func BenchmarkAblationBeta(b *testing.B) {
	c := ctx()
	users := c.Users("nyt", datagen.NYT1Day)
	fs := c.Routes("ny", benchFacilities, benchStops)
	p := benchParams(service.Binary)
	for _, beta := range []int{16, 64, 256} {
		fz, err := tqtree.BuildFrozen(users.All, tqtree.Options{
			Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: beta,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("beta=%d", beta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := query.BestFirstTopK(fz, fs, benchK, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkInsert — dynamic maintenance: per-trajectory insert cost into
// a populated TQ(Z) index (Section III-C), which lands in the delta
// overlay; rebuilds are left to Compact.
func BenchmarkInsert(b *testing.B) {
	c := ctx()
	users := c.Users("nyt", datagen.NYT1Day)
	fresh := datagen.TaxiTrips(datagen.NewYork(), 1<<16, 99)
	idx, err := NewIndex(users.All, IndexOptions{
		Ordering: ZOrdering,
		Policy:   LivePolicy{Manual: true},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := fresh[i%len(fresh)]
		t2, err := trajectory.New(trajectory.ID(uint32(1<<28)+uint32(i)), u.Points)
		if err != nil {
			b.Fatal(err)
		}
		if err := idx.Insert(t2); err != nil {
			b.Fatal(err)
		}
	}
}
