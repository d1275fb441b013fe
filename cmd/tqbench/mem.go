package main

// The `mem` experiment: what an Index holds on the heap per indexed
// trajectory, at one shard and at two, once the slice it was built from
// has been dropped — the figure the README's sizing table quotes. It
// keeps a columnar trajectory table and nothing of its input. Beside it,
// what that input costs while a caller holds it: a 32-byte Trajectory,
// its points and the slice's pointer.

import (
	"fmt"
	"runtime"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/bench"
	"github.com/trajcover/trajcover/internal/datagen"
)

// liveHeapBytes is the heap that survives two collections.
func liveHeapBytes() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func expMem(ctx *bench.Context) (*bench.Table, error) {
	t := &bench.Table{
		ID: "mem", Title: "live heap per trajectory: each index with its input dropped, and the input held",
		XLabel: "dataset", YLabel: "heap bytes/trajectory",
		Series: []bench.Series{
			{Method: "Index"}, {Method: "Index, 2 shards"},
			{Method: "corpus held"},
			{Method: "points/trajectory (n)"},
		},
	}
	ny, bj := trajcover.NewYorkCity(), trajcover.BeijingCity()
	seed := ctx.Cfg.Seed
	for _, ds := range []struct {
		name    string
		n       int
		variant trajcover.Variant
		gen     func(n int) []*trajcover.Trajectory
	}{
		{"TaxiTrips/TwoPoint", ctx.Users("nyt", datagen.NYT1Day).Len(), trajcover.TwoPoint,
			func(n int) []*trajcover.Trajectory { return trajcover.TaxiTrips(ny, n, seed+1) }},
		{"Checkins/Segmented", ctx.Users("nyf", datagen.NYFTrajectories).Len(), trajcover.Segmented,
			func(n int) []*trajcover.Trajectory { return trajcover.Checkins(ny, n, 3, seed+2) }},
		{"GPSTraces/FullTrajectory", ctx.Users("bjg", datagen.BJGTrajectories).Len(), trajcover.FullTrajectory,
			func(n int) []*trajcover.Trajectory { return trajcover.GPSTraces(bj, n, 10, 60, seed+3) }},
	} {
		opts := trajcover.IndexOptions{Variant: ds.variant, Ordering: trajcover.ZOrdering}
		sopts := opts
		sopts.Shards = 2
		builders := []func(users []*trajcover.Trajectory) (any, error){
			func(u []*trajcover.Trajectory) (any, error) { return trajcover.NewIndex(u, opts) },
			func(u []*trajcover.Trajectory) (any, error) { return trajcover.NewIndex(u, sopts) },
			func(u []*trajcover.Trajectory) (any, error) { return u, nil },
		}
		points := 0
		for i, build := range builders {
			before := liveHeapBytes()
			// The corpus is generated inside the call, so nothing but the
			// index (or, for "corpus held", the returned slice) can keep it
			// alive afterwards.
			idx, err := func() (any, error) {
				users := ds.gen(ds.n)
				if i == 0 {
					for _, u := range users {
						points += u.Len()
					}
				}
				return build(users)
			}()
			if err != nil {
				return nil, fmt.Errorf("%s, %s: %w", ds.name, t.Series[i].Method, err)
			}
			per := (liveHeapBytes() - before) / float64(ds.n)
			runtime.KeepAlive(idx)
			t.Series[i].Y = append(t.Series[i].Y, per)
		}
		t.XTicks = append(t.XTicks, fmt.Sprintf("%s n=%d", ds.name, ds.n))
		t.Series[len(builders)].Y = append(t.Series[len(builders)].Y, float64(points)/float64(ds.n))
	}
	return t, nil
}
