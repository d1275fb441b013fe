package query

import (
	"math"
	"sync"
	"testing"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
)

// TestConcurrentQueriesAreConsistent exercises the documented guarantee
// that a frozen base is safe for concurrent readers: queries never mutate
// the tree, so parallel best-first top-k calls on the base and
// ServiceValue and Cover calls on an epoch over it must all succeed and
// agree with the serial answers. Run with -race to verify.
func TestConcurrentQueriesAreConsistent(t *testing.T) {
	users := makeUsers(2000, 2, 150)
	facilities := makeFacilities(30, 12, 151)
	ep := baseEpoch(t, users.All, tqtree.Options{
		Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Bounds: testBounds,
	})
	p := Params{Scenario: service.Binary, Psi: 40}

	wantTop, _, err := BestFirstTopK(ep.Base(), facilities, 5, p)
	if err != nil {
		t.Fatal(err)
	}
	wantSV := make([]float64, len(facilities))
	for i, f := range facilities {
		wantSV[i], _, err = ep.ServiceValue(f, p)
		if err != nil {
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*3)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				top, _, err := BestFirstTopK(ep.Base(), facilities, 5, p)
				if err != nil {
					errs <- err
					return
				}
				for i := range top {
					if math.Abs(top[i].Service-wantTop[i].Service) > 1e-9 {
						t.Errorf("worker %d: rank %d service %v, want %v",
							w, i, top[i].Service, wantTop[i].Service)
						return
					}
				}
				j := (w + rep) % len(facilities)
				sv, _, err := ep.ServiceValue(facilities[j], p)
				if err != nil {
					errs <- err
					return
				}
				if math.Abs(sv-wantSV[j]) > 1e-9 {
					t.Errorf("worker %d: service value drift", w)
					return
				}
				if _, _, err := ep.Cover(facilities[j:j+1], p); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
