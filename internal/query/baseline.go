package query

import (
	"fmt"

	"github.com/trajcover/trajcover/internal/quadtree"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Baseline is the paper's BL method: user-trajectory points indexed in a
// traditional point quadtree; for each facility, a circular range query
// around every stop retrieves the candidate users, whose service is then
// recomputed from scratch (every point against every stop). The rescan is
// what makes BL two to three orders of magnitude slower than the TQ-tree
// on multipoint workloads.
type Baseline struct {
	users *trajectory.Set
	tree  *quadtree.Tree
	// variant selects the objective translation (ObjectiveFromMask), so
	// BL answers are comparable with the matching TQ-tree variant.
	variant tqtree.Variant
}

// Variant returns the objective-translation variant the baseline answers
// under.
func (b *Baseline) Variant() tqtree.Variant { return b.variant }

// NewBaseline indexes every point of every user trajectory in a point
// quadtree, each tagged with its user's index in users.All, so users must
// not change afterwards.
func NewBaseline(users *trajectory.Set, variant tqtree.Variant) *Baseline {
	items := make([]quadtree.Item, 0, users.TotalPoints())
	for ord, u := range users.All {
		for i, p := range u.Points {
			items = append(items, quadtree.Item{P: p, Data: packRef(ord, i)})
		}
	}
	bounds, _ := users.Bounds()
	return &Baseline{
		users:   users,
		tree:    quadtree.Build(bounds, items),
		variant: variant,
	}
}

func packRef(ord, pointIdx int) uint64 {
	return uint64(ord)<<32 | uint64(uint32(pointIdx))
}

func unpackRef(data uint64) (ord int32, pointIdx int) {
	return int32(data >> 32), int(uint32(data))
}

// Cover computes the coverage table of a facility batch by range querying
// every stop, each hit setting its point in its user's mask.
func (b *Baseline) Cover(facilities []*trajectory.Facility, p Params) (*service.CoverTable, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	cb := service.NewCoverBuilder(b.users.Len())
	for _, f := range facilities {
		for _, stop := range f.Stops {
			b.tree.SearchCircle(stop, p.Psi, func(it quadtree.Item) bool {
				ord, i := unpackRef(it.Data)
				cb.Mask(ord, b.users.All[ord].Len()).Set(i)
				return true
			})
		}
		cb.Next()
	}
	users := make([]*trajectory.Trajectory, len(cb.Ordinals()))
	for s, ord := range cb.Ordinals() {
		users[s] = b.users.All[ord]
	}
	return cb.Build(users), nil
}

// ServiceValue computes SO(U, f) the paper's way: the range queries
// collect the users with any point within ψ of any stop, and each
// candidate is then rescanned in full.
func (b *Baseline) ServiceValue(f *trajectory.Facility, p Params) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	candidates := map[int32]struct{}{}
	for _, stop := range f.Stops {
		b.tree.SearchCircle(stop, p.Psi, func(it quadtree.Item) bool {
			ord, _ := unpackRef(it.Data)
			candidates[ord] = struct{}{}
			return true
		})
	}
	var total float64
	for ord := range candidates {
		u := b.users.All[ord]
		total += ObjectiveFromMask(b.variant, p.Scenario, u, service.MaskOf(u, f.Stops, p.Psi))
	}
	return total, nil
}

// TopK evaluates every facility and returns the k best — the baseline has
// no pruning, which is exactly why the paper's Figure 7b shows its time
// independent of k.
func (b *Baseline) TopK(facilities []*trajectory.Facility, k int, p Params) ([]Result, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if k <= 0 || len(facilities) == 0 {
		return nil, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	results := make([]Result, 0, len(facilities))
	for _, f := range facilities {
		so, err := b.ServiceValue(f, p)
		if err != nil {
			return nil, fmt.Errorf("facility %d: %w", f.ID, err)
		}
		results = append(results, Result{Facility: f, Service: so})
	}
	sortResults(results)
	return results[:k], nil
}
