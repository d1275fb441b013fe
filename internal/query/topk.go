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

// CompareRanked is the order of every top-k answer: service descending,
// then facility ID ascending for determinism.
func CompareRanked(aService float64, aID trajectory.ID, bService float64, bID trajectory.ID) int {
	if c := cmp.Compare(bService, aService); c != 0 {
		return c
	}
	return cmp.Compare(aID, bID)
}

// sortResults orders rs by CompareRanked.
func sortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		return CompareRanked(a.Service, a.Facility.ID, b.Service, b.Facility.ID)
	})
}
