package query

import (
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestSeedBound pins the bound every best-first top-k starts from, on
// both layouts (epoch_test.go covers the overlay's share): it is sound
// (never below the exact value), it is the optimistic remainder the
// best-first search seeds with, and its descent
// ends at the paper's containingQNode — the last enqueued pair's cell
// contains the facility's EMBR (or is the root) and none of its
// children's does, with only list-only ancestors before it.
func TestSeedBound(t *testing.T) {
	users := makeUsers(1500, 4, 42)
	facilities := makeFacilities(25, 10, 43)
	// One route round the map's center: its EMBR straddles the root's
	// children, so the descent must stay at the root.
	facilities = append(facilities, trajectory.MustNewFacility(999, []geo.Point{geo.Pt(499, 499), geo.Pt(501, 501)}))
	for _, cfg := range validConfigs(true) {
		tree, err := tqtree.Build(users.All, tqtree.Options{
			Variant: cfg.variant, Ordering: cfg.ordering, Beta: 8, Bounds: testBounds,
		})
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(tree, users)
		frozen, err := tqtree.Freeze(tree)
		if err != nil {
			t.Fatal(err)
		}
		feng := NewFrozenEngine(frozen, users)
		p := Params{Scenario: cfg.scenario, Psi: 35}
		l := ptrLayout{tree}
		for _, f := range facilities {
			exact, _, err := eng.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			ub := eng.UpperBound(f, p)
			if ub < exact {
				t.Fatalf("%v facility %d: bound %v below exact value %v", cfg, f.ID, ub, exact)
			}
			if fub := feng.UpperBound(f, p); fub != ub {
				t.Fatalf("%v facility %d: frozen bound %v, pointer bound %v", cfg, f.ID, fub, ub)
			}
			s := initialStateG[*tqtreeNode](l, f, p, l.AncestorsCanServe(p.Scenario))
			if s.aserve != 0 || s.hserve != ub {
				t.Fatalf("%v facility %d: search seeds with (%v, %v), bound %v", cfg, f.ID, s.aserve, s.hserve, ub)
			}
			embr := f.EMBR(p.Psi)
			for i, pr := range s.pairs {
				last := i == len(s.pairs)-1
				inside := pr.node == tree.Root() || pr.node.Rect().ContainsRect(embr) // the root takes what overhangs the map
				if !inside || pr.listOnly == last {
					t.Fatalf("%v facility %d: pair %d of %d: cell %v, listOnly %v", cfg, f.ID, i, len(s.pairs), pr.node.Rect(), pr.listOnly)
				}
			}
			q := s.pairs[len(s.pairs)-1].node
			if c := childContaining[*tqtreeNode](l, q, embr); c != nil {
				t.Fatalf("%v facility %d: descent stopped above %v", cfg, f.ID, c.Rect())
			}
			if f.ID == 999 && q != tree.Root() {
				t.Fatalf("%v: a route straddling the center seeded below the root", cfg)
			}
		}
	}
}
