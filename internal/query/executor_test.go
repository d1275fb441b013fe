package query

import (
	"context"
	"sync"
	"testing"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
)

// executorEnv builds a moderately sized epoch with nothing pending shared
// by the batch executor tests: multipoint users so every scenario is
// exercised on the FullTrajectory variant, plus a TwoPoint/ZOrder base for
// Binary.
func executorEnv(t *testing.T, variant tqtree.Variant, ordering tqtree.Ordering) *Epoch {
	t.Helper()
	maxPts := 6
	if variant == tqtree.TwoPoint {
		maxPts = 2
	}
	users := makeUsers(3000, maxPts, 201)
	return baseEpoch(t, users.All, tqtree.Options{
		Variant: variant, Ordering: ordering, Bounds: testBounds,
	})
}

func TestServiceValuesMatchesSerial(t *testing.T) {
	cases := []struct {
		variant  tqtree.Variant
		ordering tqtree.Ordering
		sc       service.Scenario
	}{
		{tqtree.TwoPoint, tqtree.ZOrder, service.Binary},
		{tqtree.TwoPoint, tqtree.Basic, service.Binary},
		{tqtree.Segmented, tqtree.ZOrder, service.PointCount},
		{tqtree.FullTrajectory, tqtree.ZOrder, service.Length},
	}
	for _, tc := range cases {
		t.Run(tc.variant.String()+"/"+tc.sc.String(), func(t *testing.T) {
			ep := executorEnv(t, tc.variant, tc.ordering)
			fs := makeFacilities(40, 16, 202)
			p := Params{Scenario: tc.sc, Psi: 45}

			var wantM Metrics
			want := make([]float64, len(fs))
			for i, f := range fs {
				v, m, err := ep.ServiceValue(f, p)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = v
				wantM.Add(m)
			}
			for _, workers := range []int{0, 1, 3, 8} {
				got, gotM, err := ep.ServiceValuesCtx(context.Background(), fs, p, workers)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("workers=%d: %d values, want %d", workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("workers=%d facility %d: %v, want %v", workers, i, got[i], want[i])
					}
				}
				if gotM != wantM {
					t.Errorf("workers=%d metrics %+v, want %+v", workers, gotM, wantM)
				}
			}
		})
	}
}

func TestServiceValuesConcurrentBatches(t *testing.T) {
	// Several goroutines each running a worker-pooled batch over the same
	// shared tree: guards the read-only-tree claim and the scratch pools
	// under -race.
	ep := executorEnv(t, tqtree.TwoPoint, tqtree.ZOrder)
	fs := makeFacilities(30, 10, 205)
	p := Params{Scenario: service.Binary, Psi: 40}
	want, _, err := ep.ServiceValuesCtx(context.Background(), fs, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _, err := ep.ServiceValuesCtx(context.Background(), fs, p, 3)
			if err != nil {
				t.Error(err)
				return
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("facility %d: %v, want %v", i, got[i], want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServiceValuesValidation(t *testing.T) {
	ep := executorEnv(t, tqtree.TwoPoint, tqtree.ZOrder)
	fs := makeFacilities(4, 4, 206)
	if _, _, err := ep.ServiceValuesCtx(context.Background(), fs, Params{Scenario: service.Scenario(9), Psi: 10}, 2); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, _, err := ep.ServiceValuesCtx(context.Background(), fs, Params{Scenario: service.Binary, Psi: -1}, 2); err == nil {
		t.Error("negative psi accepted")
	}
	out, m, err := ep.ServiceValuesCtx(context.Background(), nil, Params{Scenario: service.Binary, Psi: 10}, 2)
	if err != nil || out != nil || m != (Metrics{}) {
		t.Errorf("empty batch: out=%v m=%+v err=%v", out, m, err)
	}
}

// TestResultsHelper pins the one ranking every top-k answer has — value
// descending, ties by facility ID ascending — and Results' reading of k:
// the first k, all of them for k >= N, and all of them for k <= 0 too
// (which is why the served top-k guards k <= 0 itself).
func TestResultsHelper(t *testing.T) {
	fs := makeFacilities(3, 4, 207)
	rs := Results(fs, []float64{1, 3, 2}, 2)
	if len(rs) != 2 || rs[0].Service != 3 || rs[1].Service != 2 {
		t.Errorf("unexpected results %+v", rs)
	}
	tied := Results(fs, []float64{2, 5, 2}, 3)
	if tied[0].Facility != fs[1] || tied[1].Facility.ID > tied[2].Facility.ID {
		t.Errorf("ties not broken by ascending ID: %+v", tied)
	}
	for _, k := range []int{-1, 0, 3, 4} {
		if got := Results(fs, []float64{2, 5, 2}, k); len(got) != 3 {
			t.Errorf("k = %d: %d results, want all 3", k, len(got))
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	Results(fs, []float64{1}, 1)
}
