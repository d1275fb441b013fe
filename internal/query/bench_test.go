package query

import (
	"context"
	"fmt"
	"testing"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// benchSetup builds a 200k-trip workload shared by the package benchmarks.
type benchEnv struct {
	users *trajectory.Set
	fs    []*trajectory.Facility
	epZ   *Epoch
	epB   *Epoch
	bl    *Baseline
}

var sharedEnv *benchEnv

func getEnv(b *testing.B) *benchEnv {
	b.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	city := datagen.NewYork()
	users := trajectory.MustNewSet(datagen.TaxiTrips(city, 200000, 2))
	fs := datagen.BusRoutes(city, 128, 32, 5)
	sharedEnv = &benchEnv{
		users: users,
		fs:    fs,
		epZ:   baseEpoch(b, users.All, tqtree.Options{Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder}),
		epB:   baseEpoch(b, users.All, tqtree.Options{Variant: tqtree.TwoPoint, Ordering: tqtree.Basic}),
		bl:    NewBaseline(users, tqtree.TwoPoint),
	}
	return sharedEnv
}

var benchParams = Params{Scenario: service.Binary, Psi: 300}

func BenchmarkTopKZOrder(b *testing.B) {
	env := getEnv(b)
	b.ReportAllocs() // guards the relaxState span/buf scratch reuse
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BestFirstTopK(env.epZ.Base(), env.fs, 8, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceValuesWorkers(b *testing.B) {
	env := getEnv(b)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := env.epZ.ServiceValuesCtx(context.Background(), env.fs, benchParams, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTopKBasic(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := BestFirstTopK(env.epB.Base(), env.fs, 8, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTopKBaseline(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.bl.TopK(env.fs, 8, benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServiceValueZOrder(b *testing.B) {
	env := getEnv(b)
	b.ReportAllocs() // guards the pooled compArena + StopSet hot path
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.epZ.ServiceValue(env.fs[i%len(env.fs)], benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceValueScenarios is BenchmarkServiceValueZOrder under
// the fractional scenarios, whose scoring reads the trajectory table:
// PointCount its points, Length a served trajectory's length too.
func BenchmarkServiceValueScenarios(b *testing.B) {
	env := getEnv(b)
	for _, sc := range []service.Scenario{service.PointCount, service.Length} {
		p := benchParams
		p.Scenario = sc
		b.Run(sc.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := env.epZ.ServiceValue(env.fs[i%len(env.fs)], p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCoverageZOrder(b *testing.B) {
	env := getEnv(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(env.fs)
		if _, _, err := env.epZ.Cover(env.fs[j:j+1], benchParams); err != nil {
			b.Fatal(err)
		}
	}
}
