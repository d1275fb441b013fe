package bench

import (
	"context"
	"fmt"
	"runtime"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Default experiment parameters (the bold values of the paper's
// Table III): NYT 1-day users, S=32 stops, N=128 facilities, k=8.
const (
	defaultStops      = 32
	defaultFacilities = 128
	defaultK          = 8
)

// Axis values from Table III.
var (
	userDayAxis  = []string{"0.5", "1", "2", "3"}
	userDaySizes = []int{datagen.NYTHalfDay, datagen.NYT1Day, datagen.NYT2Days, datagen.NYT3Days}
	stopsAxis    = []int{8, 16, 32, 64, 128, 256, 512}
	facilityAxis = []int{16, 32, 64, 128, 256, 512}
	kAxis        = []int{4, 8, 16, 32}
	fig11FacAxis = []int{16, 32, 64}
)

// Registry returns every reproducible experiment, in paper order,
// followed by any process-local extras (see RegisterExtra).
func Registry() []Experiment {
	reg := []Experiment{
		{ID: "datasets", Title: "Tables I & II — dataset inventory (scaled)", Run: expDatasets},
		{ID: "fig6a", Title: "Fig 6a — service value time vs #user trajectories (NYT)", Run: expFig6a},
		{ID: "fig6b", Title: "Fig 6b — service value time vs #stops (NYT)", Run: expFig6b},
		{ID: "fig7a", Title: "Fig 7a — kMaxRRST time vs #user trajectories (NYT)", Run: expFig7a},
		{ID: "fig7b", Title: "Fig 7b — kMaxRRST time vs k (NYT)", Run: expFig7b},
		{ID: "fig7c", Title: "Fig 7c — kMaxRRST time vs #stops (NYT)", Run: expFig7c},
		{ID: "fig7d", Title: "Fig 7d — kMaxRRST time vs #facilities (NYT)", Run: expFig7d},
		{ID: "fig8a", Title: "Fig 8a — multipoint kMaxRRST time vs #stops (NYF, S-/F-TQ)", Run: expFig8a},
		{ID: "fig8b", Title: "Fig 8b — multipoint kMaxRRST time vs #facilities (NYF, S-/F-TQ)", Run: expFig8b},
		{ID: "fig9a", Title: "Fig 9a — segmented kMaxRRST time vs #stops (BJG)", Run: expFig9a},
		{ID: "fig9b", Title: "Fig 9b — segmented kMaxRRST time vs #facilities (BJG)", Run: expFig9b},
		{ID: "fig10a", Title: "Fig 10a — MaxkCovRST time vs #user trajectories (NYT)", Run: expFig10a},
		{ID: "fig10b", Title: "Fig 10b — MaxkCovRST users served vs #user trajectories (NYT)", Run: expFig10b},
		{ID: "fig10c", Title: "Fig 10c — MaxkCovRST time vs #facilities (NYT)", Run: expFig10c},
		{ID: "fig10d", Title: "Fig 10d — MaxkCovRST users served vs #facilities (NYT)", Run: expFig10d},
		{ID: "fig11a", Title: "Fig 11a — approximation ratio vs #user trajectories (NYT)", Run: expFig11a},
		{ID: "fig11b", Title: "Fig 11b — approximation ratio vs #facilities (NYT)", Run: expFig11b},
		{ID: "psi", Title: "§VI.B.1(iii) — kMaxRRST time vs distance threshold ψ (NYT; omitted 'for brevity' in the paper)", Run: expPsi},
		{ID: "build", Title: "§VI.B.4 — index construction time vs #user trajectories (NYT)", Run: expBuild},
		{ID: "scaling", Title: "extra — BL/TQ(Z) gap growth with dataset scale (not in the paper)", Run: expScaling},
		{ID: "thrpt", Title: "extra — batch kMaxRRST throughput vs worker count (NYT, not in the paper)", Run: expThroughput},
		{ID: "pbuild", Title: "extra — TQ(Z) construction vs build parallelism (NYT, not in the paper)", Run: expParallelBuild},
		{ID: "shards", Title: "extra — sharded scatter-gather build time and throughput vs shard count (NYT, not in the paper)", Run: expShards},
		{ID: "bound", Title: "extra — seed upper bound tightness (UB/exact, rank gap at k) and stop-rule cuts over the N, k, ψ sweeps (NYT, BJG; not in the paper)", Run: expBound},
	}
	return append(reg, extra...)
}

// shardAxis sweeps the number of TQ-tree shards.
var shardAxis = []int{1, 2, 4, 8}

// expShards measures the sharded serving path: index build time,
// ServiceValues batch throughput, and scatter-gather kMaxRRST (TopK)
// throughput as the shard count grows. The build series is in seconds;
// the query series are queries/sec. On one core the query series should
// stay roughly flat (scatter-gather adds only heap overhead); on n cores
// builds parallelize across shards and per-shard batches share the
// worker pool.
func expShards(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "shards", Title: "sharded scatter-gather vs shard count (NYT)",
		XLabel: "shards", YLabel: "queries/sec (build series: seconds)",
		Series: []Series{{Method: "build(s)"}, {Method: "ServiceValues"}, {Method: "TopKPar"}},
	}
	users := ctx.Users(dsNYT, datagen.NYT1Day)
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	p := ctx.Params(service.Binary)
	for _, n := range shardAxis {
		opts := shard.Options{Shards: n, Tree: tqtree.Options{
			Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder,
		}}
		var s *shard.Live
		var berr error
		buildSec := ctx.Time(func() {
			s, berr = shard.BuildLive(users.All, opts, shard.Policy{Manual: true})
		})
		if berr != nil {
			return nil, berr
		}
		var qerr error
		svSec := ctx.Time(func() {
			if _, _, e := s.ServiceValuesCtx(context.Background(), fs, p, 0); e != nil {
				qerr = e
			}
		})
		tkSec := ctx.Time(func() {
			if _, _, e := s.TopKCtx(context.Background(), fs, defaultK, p, 0); e != nil {
				qerr = e
			}
		})
		if qerr != nil {
			return nil, qerr
		}
		svQPS, tkQPS := 0.0, 0.0
		if svSec > 0 {
			svQPS = float64(len(fs)) / svSec
		}
		if tkSec > 0 {
			tkQPS = 1 / tkSec
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		appendRow(t, buildSec, svQPS, tkQPS)
	}
	return t, nil
}

// workerAxis sweeps the batch executor's pool size.
var workerAxis = []int{1, 2, 4, 8}

// expThroughput measures the concurrent batch executor: queries/sec for
// per-facility service values (ServiceValues) as the worker count grows.
// On a single-core host the series should stay flat; on n cores it should
// approach n× the single-worker rate because facilities shard
// independently over a read-only tree. A served top-k is this batch plus
// a sort (expShards times it through the scatter).
func expThroughput(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "thrpt", Title: "batch throughput vs workers (NYT)",
		XLabel: "workers", YLabel: "queries/sec",
		Series: []Series{{Method: "ServiceValues"}},
	}
	eng := ctx.Engine(dsNYT, datagen.NYT1Day, tqtree.TwoPoint, tqtree.ZOrder)
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	p := ctx.Params(service.Binary)
	for _, w := range workerAxis {
		var qerr error
		svSec := ctx.Time(func() {
			if _, _, e := eng.ServiceValues(fs, p, w); e != nil {
				qerr = e
			}
		})
		if qerr != nil {
			return nil, qerr
		}
		svQPS := 0.0
		if svSec > 0 {
			svQPS = float64(len(fs)) / svSec
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(w))
		appendRow(t, svQPS)
	}
	return t, nil
}

// expParallelBuild measures TQ(Z) construction with Options.Parallelism
// swept over the worker axis — the companion series to the paper's §VI.B.4
// build-time experiment, demonstrating that index construction scales
// with cores while producing an identical index. There is one build,
// BuildFrozen, which plans the corpus and writes the frozen columns every
// served index is: seconds (min of the repeats), then the heap allocations
// and MB allocated by one more build.
func expParallelBuild(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "pbuild", Title: "TQ(Z) build vs parallelism (NYT)",
		XLabel: "parallelism", YLabel: "seconds to build (allocs, MB: per build)",
		Series: []Series{{Method: "BuildFrozen"}, {Method: "BuildFrozen allocs(n)"}, {Method: "BuildFrozen MB(n)"}},
	}
	users := ctx.Users(dsNYT, datagen.NYT1Day)
	for _, w := range workerAxis {
		opts := tqtree.Options{Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Parallelism: w}
		var berr error
		run := func() {
			if _, err := tqtree.BuildFrozen(users.All, opts); err != nil {
				berr = err
			}
		}
		sec := ctx.Time(run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if berr != nil {
			return nil, berr
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(w))
		appendRow(t, sec, float64(after.Mallocs-before.Mallocs), float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	}
	return t, nil
}

// expScaling quantifies how the BL-versus-TQ(Z) gap widens with dataset
// size — the trend behind the paper's orders-of-magnitude headline. The
// x-axis is the fraction of the full NYT-3days cardinality, independent
// of the run's own -scale flag.
func expScaling(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "scaling", Title: "kMaxRRST BL vs TQ(Z) across dataset scales",
		XLabel: "fraction of NYT-3days", YLabel: "seconds per query",
		Series: []Series{{Method: "BL"}, {Method: "TQ(Z)"}, {Method: "BL/TQ(Z)"}},
	}
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	p := ctx.Params(service.Binary)
	for _, frac := range []float64{0.02, 0.05, 0.1, 0.2} {
		n := int(frac * float64(datagen.NYT3Days))
		users := trajectory.MustNewSet(datagen.TaxiTrips(datagen.NewYork(), n, ctx.Cfg.Seed+77))
		bl := query.NewBaseline(users, tqtree.TwoPoint)
		eng, err := buildEngine(users.All, tqtree.Options{Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder})
		if err != nil {
			return nil, err
		}
		var qerr error
		blSec := ctx.Time(func() {
			if _, e := bl.TopK(fs, defaultK, p); e != nil {
				qerr = e
			}
		})
		tqSec := ctx.Time(func() {
			if _, _, e := eng.TopK(fs, defaultK, p); e != nil {
				qerr = e
			}
		})
		if qerr != nil {
			return nil, qerr
		}
		ratio := 0.0
		if tqSec > 0 {
			ratio = blSec / tqSec
		}
		t.XTicks = append(t.XTicks, fmt.Sprintf("%.2f", frac))
		appendRow(t, blSec, tqSec, ratio)
	}
	return t, nil
}

// psiAxis sweeps the serving threshold from half a block to a long walk.
var psiAxis = []float64{75, 150, 300, 600, 1200}

// expPsi fills in the ψ-sensitivity experiment the paper describes but
// omits: runtime of the three kMaxRRST methods as ψ grows. The paper
// reports "no significant change other than the baseline"; the series
// lets readers verify the claim.
func expPsi(ctx *Context) (*Table, error) {
	t := topKTable("psi", "kMaxRRST time vs psi (NYT)", "psi(m)")
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	bl := ctx.Baseline(dsNYT, datagen.NYT1Day, tqtree.TwoPoint)
	engB := ctx.Engine(dsNYT, datagen.NYT1Day, tqtree.TwoPoint, tqtree.Basic)
	engZ := ctx.Engine(dsNYT, datagen.NYT1Day, tqtree.TwoPoint, tqtree.ZOrder)
	for _, psi := range psiAxis {
		p := query.Params{Scenario: service.Binary, Psi: psi}
		var err error
		blSec := ctx.Time(func() {
			if _, e := bl.TopK(fs, defaultK, p); e != nil {
				err = e
			}
		})
		tqbSec := ctx.Time(func() {
			if _, _, e := engB.TopK(fs, defaultK, p); e != nil {
				err = e
			}
		})
		tqzSec := ctx.Time(func() {
			if _, _, e := engZ.TopK(fs, defaultK, p); e != nil {
				err = e
			}
		})
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprintf("%.0f", psi))
		appendRow(t, blSec, tqbSec, tqzSec)
	}
	return t, nil
}

func expDatasets(ctx *Context) (*Table, error) {
	rows := []struct {
		name   string
		kind   string
		paperN int
	}{
		{"NYT (taxi trips)", dsNYT, datagen.NYT3Days},
		{"NYF (check-ins)", dsNYF, datagen.NYFTrajectories},
		{"BJG (GPS traces)", dsBJG, datagen.BJGTrajectories},
	}
	t := &Table{
		ID: "datasets", Title: "dataset inventory (scaled stand-ins)",
		XLabel: "dataset", YLabel: "count",
		Series: []Series{{Method: "trajectories"}, {Method: "points"}},
	}
	for _, r := range rows {
		set := ctx.Users(r.kind, r.paperN)
		t.XTicks = append(t.XTicks, r.name)
		t.Series[0].Y = append(t.Series[0].Y, float64(set.Len()))
		t.Series[1].Y = append(t.Series[1].Y, float64(set.TotalPoints()))
	}
	return t, nil
}

// timeServiceValue measures the average per-facility service-value time.
func timeServiceValue(ctx *Context, eng *query.FrozenEngine, bl *query.Baseline, fs []*trajectory.Facility, p query.Params) (blSec, tqSec float64, err error) {
	probe := fs
	if len(probe) > 16 {
		probe = probe[:16]
	}
	if bl != nil {
		blSec = ctx.Time(func() {
			for _, f := range probe {
				if _, e := bl.ServiceValue(f, p); e != nil {
					err = e
					return
				}
			}
		}) / float64(len(probe))
	}
	if eng != nil {
		tqSec = ctx.Time(func() {
			for _, f := range probe {
				if _, _, e := eng.ServiceValue(f, p); e != nil {
					err = e
					return
				}
			}
		}) / float64(len(probe))
	}
	return blSec, tqSec, err
}

func expFig6a(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "fig6a", Title: "service value time vs #users (NYT)",
		XLabel: "users(days)", YLabel: "seconds per facility",
		Series: []Series{{Method: "BL"}, {Method: "TQ(B)"}, {Method: "TQ(Z)"}},
	}
	p := ctx.Params(service.Binary)
	for i, days := range userDayAxis {
		fs := ctx.Routes("ny", defaultFacilities, defaultStops)
		bl := ctx.Baseline(dsNYT, userDaySizes[i], tqtree.TwoPoint)
		engB := ctx.Engine(dsNYT, userDaySizes[i], tqtree.TwoPoint, tqtree.Basic)
		engZ := ctx.Engine(dsNYT, userDaySizes[i], tqtree.TwoPoint, tqtree.ZOrder)
		blSec, tqbSec, err := timeServiceValue(ctx, engB, bl, fs, p)
		if err != nil {
			return nil, err
		}
		_, tqzSec, err := timeServiceValue(ctx, engZ, nil, fs, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, days)
		t.Series[0].Y = append(t.Series[0].Y, blSec)
		t.Series[1].Y = append(t.Series[1].Y, tqbSec)
		t.Series[2].Y = append(t.Series[2].Y, tqzSec)
	}
	return t, nil
}

func expFig6b(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "fig6b", Title: "service value time vs #stops (NYT)",
		XLabel: "stops", YLabel: "seconds per facility",
		Series: []Series{{Method: "BL"}, {Method: "TQ(B)"}, {Method: "TQ(Z)"}},
	}
	p := ctx.Params(service.Binary)
	bl := ctx.Baseline(dsNYT, datagen.NYT1Day, tqtree.TwoPoint)
	engB := ctx.Engine(dsNYT, datagen.NYT1Day, tqtree.TwoPoint, tqtree.Basic)
	engZ := ctx.Engine(dsNYT, datagen.NYT1Day, tqtree.TwoPoint, tqtree.ZOrder)
	for _, stops := range stopsAxis {
		fs := ctx.Routes("ny", defaultFacilities, stops)
		blSec, tqbSec, err := timeServiceValue(ctx, engB, bl, fs, p)
		if err != nil {
			return nil, err
		}
		_, tqzSec, err := timeServiceValue(ctx, engZ, nil, fs, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(stops))
		t.Series[0].Y = append(t.Series[0].Y, blSec)
		t.Series[1].Y = append(t.Series[1].Y, tqbSec)
		t.Series[2].Y = append(t.Series[2].Y, tqzSec)
	}
	return t, nil
}

// timeTopK measures one kMaxRRST query for the three standard methods.
func timeTopK(ctx *Context, kind string, paperN int, variant tqtree.Variant, fs []*trajectory.Facility, k int, p query.Params) (blSec, tqbSec, tqzSec float64, err error) {
	bl := ctx.Baseline(kind, paperN, variant)
	engB := ctx.Engine(kind, paperN, variant, tqtree.Basic)
	engZ := ctx.Engine(kind, paperN, variant, tqtree.ZOrder)
	blSec = ctx.Time(func() {
		if _, e := bl.TopK(fs, k, p); e != nil {
			err = e
		}
	})
	if err != nil {
		return
	}
	tqbSec = ctx.Time(func() {
		if _, _, e := engB.TopK(fs, k, p); e != nil {
			err = e
		}
	})
	if err != nil {
		return
	}
	tqzSec = ctx.Time(func() {
		if _, _, e := engZ.TopK(fs, k, p); e != nil {
			err = e
		}
	})
	return
}

func topKTable(id, title, xlabel string) *Table {
	return &Table{
		ID: id, Title: title, XLabel: xlabel, YLabel: "seconds per query",
		Series: []Series{{Method: "BL"}, {Method: "TQ(B)"}, {Method: "TQ(Z)"}},
	}
}

func expFig7a(ctx *Context) (*Table, error) {
	t := topKTable("fig7a", "kMaxRRST time vs #users (NYT)", "users(days)")
	p := ctx.Params(service.Binary)
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	for i, days := range userDayAxis {
		bl, tqb, tqz, err := timeTopK(ctx, dsNYT, userDaySizes[i], tqtree.TwoPoint, fs, defaultK, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, days)
		appendRow(t, bl, tqb, tqz)
	}
	return t, nil
}

func expFig7b(ctx *Context) (*Table, error) {
	t := topKTable("fig7b", "kMaxRRST time vs k (NYT)", "k")
	p := ctx.Params(service.Binary)
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	for _, k := range kAxis {
		bl, tqb, tqz, err := timeTopK(ctx, dsNYT, datagen.NYT1Day, tqtree.TwoPoint, fs, k, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(k))
		appendRow(t, bl, tqb, tqz)
	}
	return t, nil
}

func expFig7c(ctx *Context) (*Table, error) {
	t := topKTable("fig7c", "kMaxRRST time vs #stops (NYT)", "stops")
	p := ctx.Params(service.Binary)
	for _, stops := range stopsAxis {
		fs := ctx.Routes("ny", defaultFacilities, stops)
		bl, tqb, tqz, err := timeTopK(ctx, dsNYT, datagen.NYT1Day, tqtree.TwoPoint, fs, defaultK, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(stops))
		appendRow(t, bl, tqb, tqz)
	}
	return t, nil
}

func expFig7d(ctx *Context) (*Table, error) {
	t := topKTable("fig7d", "kMaxRRST time vs #facilities (NYT)", "facilities")
	p := ctx.Params(service.Binary)
	for _, n := range facilityAxis {
		fs := ctx.Routes("ny", n, defaultStops)
		bl, tqb, tqz, err := timeTopK(ctx, dsNYT, datagen.NYT1Day, tqtree.TwoPoint, fs, defaultK, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		appendRow(t, bl, tqb, tqz)
	}
	return t, nil
}

func appendRow(t *Table, ys ...float64) {
	for i, y := range ys {
		t.Series[i].Y = append(t.Series[i].Y, y)
	}
}

// multipointRow measures the six NYF methods of Fig 8: S-BL, S-TQ(B),
// S-TQ(Z) (segmented) and F-BL, F-TQ(B), F-TQ(Z) (full-trajectory).
// PointCount is the multipoint service scenario.
func multipointRow(ctx *Context, fs []*trajectory.Facility, k int) ([]float64, error) {
	p := ctx.Params(service.PointCount)
	var out []float64
	for _, variant := range []tqtree.Variant{tqtree.Segmented, tqtree.FullTrajectory} {
		bl, tqb, tqz, err := timeTopK(ctx, dsNYF, datagen.NYFTrajectories, variant, fs, k, p)
		if err != nil {
			return nil, err
		}
		out = append(out, bl, tqb, tqz)
	}
	return out, nil
}

func multipointTable(id, title, xlabel string) *Table {
	return &Table{
		ID: id, Title: title, XLabel: xlabel, YLabel: "seconds per query",
		Series: []Series{
			{Method: "S-BL"}, {Method: "S-TQ(B)"}, {Method: "S-TQ(Z)"},
			{Method: "F-BL"}, {Method: "F-TQ(B)"}, {Method: "F-TQ(Z)"},
		},
	}
}

func expFig8a(ctx *Context) (*Table, error) {
	t := multipointTable("fig8a", "multipoint kMaxRRST time vs #stops (NYF)", "stops")
	for _, stops := range stopsAxis {
		fs := ctx.Routes("ny", defaultFacilities, stops)
		row, err := multipointRow(ctx, fs, defaultK)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(stops))
		appendRow(t, row...)
	}
	return t, nil
}

func expFig8b(ctx *Context) (*Table, error) {
	t := multipointTable("fig8b", "multipoint kMaxRRST time vs #facilities (NYF)", "facilities")
	for _, n := range facilityAxis {
		fs := ctx.Routes("ny", n, defaultStops)
		row, err := multipointRow(ctx, fs, defaultK)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		appendRow(t, row...)
	}
	return t, nil
}

func expFig9a(ctx *Context) (*Table, error) {
	t := topKTable("fig9a", "segmented kMaxRRST time vs #stops (BJG)", "stops")
	p := ctx.Params(service.PointCount)
	for _, stops := range stopsAxis {
		fs := ctx.Routes("bj", defaultFacilities, stops)
		bl, tqb, tqz, err := timeTopK(ctx, dsBJG, datagen.BJGTrajectories, tqtree.Segmented, fs, defaultK, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(stops))
		appendRow(t, bl, tqb, tqz)
	}
	return t, nil
}

func expFig9b(ctx *Context) (*Table, error) {
	t := topKTable("fig9b", "segmented kMaxRRST time vs #facilities (BJG)", "facilities")
	p := ctx.Params(service.PointCount)
	for _, n := range facilityAxis {
		fs := ctx.Routes("bj", n, defaultStops)
		bl, tqb, tqz, err := timeTopK(ctx, dsBJG, datagen.BJGTrajectories, tqtree.Segmented, fs, defaultK, p)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		appendRow(t, bl, tqb, tqz)
	}
	return t, nil
}

// maxCovMethods runs the four MaxkCovRST methods and returns per-method
// (seconds, users served).
func maxCovMethods(ctx *Context, paperN int, fs []*trajectory.Facility, k int) (secs, served []float64, err error) {
	p := ctx.Params(service.Binary)
	bl := ctx.Baseline(dsNYT, paperN, tqtree.TwoPoint)
	srcB := ctx.Source(dsNYT, paperN, tqtree.TwoPoint, tqtree.Basic)
	srcZ := ctx.Source(dsNYT, paperN, tqtree.TwoPoint, tqtree.ZOrder)

	var res maxcov.Result
	run := func(fn func() (maxcov.Result, error)) float64 {
		return ctx.Time(func() {
			var e error
			res, e = fn()
			if e != nil {
				err = e
			}
		})
	}
	// G(BL): straightforward greedy over baseline coverage.
	sec := run(func() (maxcov.Result, error) {
		return maxcov.Greedy(bl, fs, k, p)
	})
	secs = append(secs, sec)
	served = append(served, float64(res.UsersServed))
	// G-TQ(B): two-step greedy over TQ-tree basic.
	sec = run(func() (maxcov.Result, error) {
		return maxcov.TwoStep(srcB, fs, k, 0, p)
	})
	secs = append(secs, sec)
	served = append(served, float64(res.UsersServed))
	// G-TQ(Z): two-step greedy over TQ-tree z-order.
	sec = run(func() (maxcov.Result, error) {
		return maxcov.TwoStep(srcZ, fs, k, 0, p)
	})
	secs = append(secs, sec)
	served = append(served, float64(res.UsersServed))
	// Gn-TQ(Z): genetic over TQ-tree z-order coverage.
	sec = run(func() (maxcov.Result, error) {
		return maxcov.Genetic(srcZ, fs, k, p,
			maxcov.GeneticOptions{Seed: ctx.Cfg.Seed})
	})
	secs = append(secs, sec)
	served = append(served, float64(res.UsersServed))
	return secs, served, err
}

func maxCovTable(id, title, xlabel, ylabel string) *Table {
	return &Table{
		ID: id, Title: title, XLabel: xlabel, YLabel: ylabel,
		Series: []Series{
			{Method: "G(BL)"}, {Method: "G-TQ(B)"}, {Method: "G-TQ(Z)"}, {Method: "Gn-TQ(Z)"},
		},
	}
}

func expFig10a(ctx *Context) (*Table, error) {
	t := maxCovTable("fig10a", "MaxkCovRST time vs #users (NYT)", "users(days)", "seconds per query")
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	for i, days := range userDayAxis {
		secs, _, err := maxCovMethods(ctx, userDaySizes[i], fs, defaultK)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, days)
		appendRow(t, secs...)
	}
	return t, nil
}

func expFig10b(ctx *Context) (*Table, error) {
	t := maxCovTable("fig10b", "MaxkCovRST users served vs #users (NYT)", "users(days)", "# users served")
	fs := ctx.Routes("ny", defaultFacilities, defaultStops)
	for i, days := range userDayAxis {
		_, served, err := maxCovMethods(ctx, userDaySizes[i], fs, defaultK)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, days)
		appendRow(t, served...)
	}
	return t, nil
}

func expFig10c(ctx *Context) (*Table, error) {
	t := maxCovTable("fig10c", "MaxkCovRST time vs #facilities (NYT)", "facilities", "seconds per query")
	for _, n := range facilityAxis {
		fs := ctx.Routes("ny", n, defaultStops)
		secs, _, err := maxCovMethods(ctx, datagen.NYT1Day, fs, defaultK)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		appendRow(t, secs...)
	}
	return t, nil
}

func expFig10d(ctx *Context) (*Table, error) {
	t := maxCovTable("fig10d", "MaxkCovRST users served vs #facilities (NYT)", "facilities", "# users served")
	for _, n := range facilityAxis {
		fs := ctx.Routes("ny", n, defaultStops)
		_, served, err := maxCovMethods(ctx, datagen.NYT1Day, fs, defaultK)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		appendRow(t, served...)
	}
	return t, nil
}

// fig11K is the subset size used for the approximation-ratio experiments:
// exact enumeration of C(64, 8) is infeasible, so the harness uses k=4
// (documented in EXPERIMENTS.md).
const fig11K = 4

func approxRatios(ctx *Context, paperN int, fs []*trajectory.Facility) (greedy, genetic float64, err error) {
	p := ctx.Params(service.Binary)
	src := ctx.Source(dsNYT, paperN, tqtree.TwoPoint, tqtree.ZOrder)
	exact, err := maxcov.Exact(src, fs, fig11K, p)
	if err != nil {
		return 0, 0, err
	}
	if exact.Value == 0 {
		return 1, 1, nil
	}
	g, err := maxcov.TwoStep(src, fs, fig11K, 0, p)
	if err != nil {
		return 0, 0, err
	}
	gn, err := maxcov.Genetic(src, fs, fig11K, p, maxcov.GeneticOptions{Seed: ctx.Cfg.Seed})
	if err != nil {
		return 0, 0, err
	}
	return g.Value / exact.Value, gn.Value / exact.Value, nil
}

func expFig11a(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "fig11a", Title: "approximation ratio vs #users (NYT)",
		XLabel: "users(days)", YLabel: "approximation ratio (vs exact)",
		Series: []Series{{Method: "G-TQ(Z)"}, {Method: "Gn-TQ(Z)"}},
	}
	fs := ctx.Routes("ny", 16, defaultStops)
	for i, days := range userDayAxis {
		g, gn, err := approxRatios(ctx, userDaySizes[i], fs)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, days)
		appendRow(t, g, gn)
	}
	return t, nil
}

func expFig11b(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "fig11b", Title: "approximation ratio vs #facilities (NYT)",
		XLabel: "facilities", YLabel: "approximation ratio (vs exact)",
		Series: []Series{{Method: "G-TQ(Z)"}, {Method: "Gn-TQ(Z)"}},
	}
	for _, n := range fig11FacAxis {
		fs := ctx.Routes("ny", n, defaultStops)
		g, gn, err := approxRatios(ctx, datagen.NYT1Day, fs)
		if err != nil {
			return nil, err
		}
		t.XTicks = append(t.XTicks, fmt.Sprint(n))
		appendRow(t, g, gn)
	}
	return t, nil
}

func expBuild(ctx *Context) (*Table, error) {
	t := &Table{
		ID: "build", Title: "index construction time vs #users (NYT)",
		XLabel: "users(days)", YLabel: "seconds to build",
		Series: []Series{{Method: "TQ(B)"}, {Method: "TQ(Z)"}},
	}
	for i, days := range userDayAxis {
		users := ctx.Users(dsNYT, userDaySizes[i])
		var tb, tz float64
		tb = ctx.Time(func() {
			if _, err := tqtree.BuildFrozen(users.All, tqtree.Options{
				Variant: tqtree.TwoPoint, Ordering: tqtree.Basic,
			}); err != nil {
				panic(err)
			}
		})
		tz = ctx.Time(func() {
			if _, err := tqtree.BuildFrozen(users.All, tqtree.Options{
				Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder,
			}); err != nil {
				panic(err)
			}
		})
		t.XTicks = append(t.XTicks, days)
		appendRow(t, tb, tz)
	}
	return t, nil
}
