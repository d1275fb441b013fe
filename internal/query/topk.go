package query

import (
	"cmp"
	"slices"

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
	slices.SortFunc(rs, func(a, b Result) int {
		if c := cmp.Compare(b.Service, a.Service); c != 0 {
			return c
		}
		return cmp.Compare(a.Facility.ID, b.Facility.ID)
	})
}
