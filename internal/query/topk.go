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
