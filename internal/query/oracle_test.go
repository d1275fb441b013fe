package query

import (
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// ExactServiceValue is the brute-force oracle: SO(U, f) by direct scan,
// used to validate every accelerated path.
func ExactServiceValue(variant tqtree.Variant, sc service.Scenario, users *trajectory.Set, stops []geo.Point, psi float64) float64 {
	var total float64
	for _, u := range users.All {
		total += ObjectiveFromMask(variant, sc, u, service.MaskOf(u, stops, psi))
	}
	return total
}
