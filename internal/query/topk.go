package query

import (
	"sort"

	"github.com/trajcover/trajcover/internal/trajectory"
)

// Result is one facility of a top-k answer.
type Result struct {
	Facility *trajectory.Facility
	// Service is the exact SO(U, f).
	Service float64
}

// TopK answers the kMaxRRST query: the k facilities with the highest
// service value, in non-increasing order, computed with the best-first
// strategy of Algorithm 3 driven by the q-node `sub` upper bounds. It is
// what the paper's figures time; the public index types answer top-k as
// one exact ServiceValues pass plus Results instead.
func (e *Engine) TopK(facilities []*trajectory.Facility, k int, p Params) ([]Result, Metrics, error) {
	return topKG[*tqtreeNode](ptrLayout{e.tree}, facilities, k, p)
}

// UpperBound returns the bound TopK seeds f's search with — the `sub` of
// the smallest q-node containing f's EMBR, plus ancestor own-list bounds
// where those can serve: a sound overestimate of SO(U, f), read in one
// descent without allocating. It does not validate p. No serving path
// calls it: it is what tqbench -exp bound measures (a bound would have to
// rank fewer than N − k facilities above the k-th value before it could
// save a served top-k anything) and what LiveShardedIndex.UpperBoundsCtx
// sums as a diagnostic.
func (e *Engine) UpperBound(f *trajectory.Facility, p Params) float64 {
	return upperBoundG[*tqtreeNode](ptrLayout{e.tree}, f, p)
}

func maxStops(facilities []*trajectory.Facility) int {
	most := 0
	for _, f := range facilities {
		if len(f.Stops) > most {
			most = len(f.Stops)
		}
	}
	return most
}

// sortResults orders by service descending, facility ID ascending for
// determinism.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].Service != rs[j].Service {
			return rs[i].Service > rs[j].Service
		}
		return rs[i].Facility.ID < rs[j].Facility.ID
	})
}
