package query

import (
	"context"
	"math"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestSeedBound pins the bound every best-first top-k starts from
// (epoch_test.go covers the overlay's share): it is sound (never below
// the exact value), it is the optimistic remainder the best-first search
// seeds with, and its descent ends at the paper's containingQNode — the
// last enqueued pair's cell contains the facility's EMBR (or is the root)
// and none of its children's does, with only list-only ancestors before
// it. Algorithm 1 seeds there too where ancestors cannot serve: it skips
// lists, and answers as a walk over every list does, bit for bit.
func TestSeedBound(t *testing.T) {
	users := makeUsers(1500, 4, 42)
	facilities := makeFacilities(25, 10, 43)
	// One route round the map's center: its EMBR straddles the root's
	// children, so the descent must stay at the root.
	facilities = append(facilities, trajectory.MustNewFacility(999, []geo.Point{geo.Pt(499, 499), geo.Pt(501, 501)}))
	for _, cfg := range validConfigs(true) {
		ep := baseEpoch(t, users.All, tqtree.Options{
			Variant: cfg.variant, Ordering: cfg.ordering, Beta: 8, Bounds: testBounds,
		})
		p := Params{Scenario: cfg.scenario, Psi: 35}
		l := frozenLayout{f: ep.Base()}
		skipped := 0
		for _, f := range facilities {
			exact, em, err := ep.ServiceValue(f, p)
			if err != nil {
				t.Fatal(err)
			}
			all, am := walkEveryList(l, f, p)
			if math.Float64bits(all) != math.Float64bits(exact) || am.NodesVisited < em.NodesVisited {
				t.Fatalf("%v facility %d: %v over %d lists, %v over every list (%d)", cfg, f.ID, exact, em.NodesVisited, all, am.NodesVisited)
			}
			skipped += am.NodesVisited - em.NodesVisited
			ub := SeedBound(ep.Base(), f, p)
			if ub < exact {
				t.Fatalf("%v facility %d: bound %v below exact value %v", cfg, f.ID, ub, exact)
			}
			s := initialState(l, f, p, l.f.AncestorsCanServe(p.Scenario))
			if s.aserve != 0 || s.hserve != ub {
				t.Fatalf("%v facility %d: search seeds with (%v, %v), bound %v", cfg, f.ID, s.aserve, s.hserve, ub)
			}
			embr := f.EMBR(p.Psi)
			for i, pr := range s.pairs {
				last := i == len(s.pairs)-1
				inside := pr.node == 0 || l.f.Rect(pr.node).ContainsRect(embr) // the root takes what overhangs the map
				if !inside || pr.listOnly == last {
					t.Fatalf("%v facility %d: pair %d of %d: cell %v, listOnly %v", cfg, f.ID, i, len(s.pairs), l.f.Rect(pr.node), pr.listOnly)
				}
			}
			q := s.pairs[len(s.pairs)-1].node
			if c := childContaining(l.f, q, embr); c != nilNode {
				t.Fatalf("%v facility %d: descent stopped above %v", cfg, f.ID, l.f.Rect(c))
			}
			if f.ID == 999 && q != 0 {
				t.Fatalf("%v: a route straddling the center seeded below the root", cfg)
			}
		}
		if seeded := !l.f.AncestorsCanServe(p.Scenario); seeded != (skipped > 0) {
			t.Fatalf("%v: the seeded walk skipped %d lists", cfg, skipped)
		}
	}
}

// walkEveryList is Algorithm 1 without the containing-node seed: every
// visited node's own list is scored. The seeded walk must give the same
// value bit for bit from no more list evaluations.
func walkEveryList(l frozenLayout, f *trajectory.Facility, p Params) (float64, Metrics) {
	var m Metrics
	arena := acquireCompArena(len(f.Stops))
	defer putCompArena(arena)
	return evaluateService(l, 0, f.Stops, p, l.f.FilterModeFor(p.Scenario), true, &m, arena), m
}

// TestSeedBoundCellBorder pins the cell-border cases of the containing
// q-node. A route whose stops lie ψ west of the root's vertical center
// line, so that their exact ψ-reach ends on it, serves two trips
// with an endpoint on that line ψ from a stop: one is stored at the root
// (its first point routes east, its last lies west), the other routes
// whole into the south-east quadrant. A route off the map's east edge
// serves a trip inserted there after the build, which the delta overlay
// keeps. Every top-k and every service value must count them all, and
// Algorithm 1's seed must not skip the lists that hold them.
func TestSeedBoundCellBorder(t *testing.T) {
	users := makeUsers(400, 2, 44).All
	border := []*trajectory.Trajectory{
		trajectory.MustNew(100001, []geo.Point{geo.Pt(500, 100), geo.Pt(490, 100)}),
		trajectory.MustNew(100002, []geo.Point{geo.Pt(500, 100), geo.Pt(500, 110)}),
	}
	outside := trajectory.MustNew(100003, []geo.Point{geo.Pt(1010, 300), geo.Pt(1015, 300)})
	built := append(append([]*trajectory.Trajectory{}, users...), border...)
	set := trajectory.MustNewSet(append(append([]*trajectory.Trajectory{}, built...), outside))
	west := trajectory.MustNewFacility(7, []geo.Point{geo.Pt(480, 100), geo.Pt(480, 110)})
	east := trajectory.MustNewFacility(8, []geo.Point{geo.Pt(1005, 300), geo.Pt(1012, 300)})
	routes := []*trajectory.Facility{west, east}
	facilities := append(makeFacilities(6, 4, 45), routes...)
	const psi = 20
	// The west route's stops reach exactly to the center line: their exact
	// ψ-expansion ends on it, inside the closed south-west quadrant. (The
	// EMBR itself is padded past ψ, so it crosses the line.)
	m, sw := west.MBR(), testBounds.Quadrant(geo.QuadSW)
	if exact := (geo.Rect{MinX: m.MinX - psi, MinY: m.MinY - psi, MaxX: m.MaxX + psi, MaxY: m.MaxY + psi}); !sw.ContainsRect(exact) || exact.MaxX != sw.MaxX {
		t.Fatalf("route stops %v do not reach exactly to the center line of %v at ψ %v", m, sw, float64(psi))
	}
	without := trajectory.MustNewSet(users)
	for _, cfg := range validConfigs(false) {
		frozen := baseEpoch(t, built, tqtree.Options{
			Variant: cfg.variant, Ordering: cfg.ordering, Beta: 8, Bounds: testBounds,
		})
		ep, err := NewEpoch(frozen.Base(), []*trajectory.Trajectory{outside}, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Scenario: cfg.scenario, Psi: psi}
		top, _, err := BestFirstTopK(frozen.Base(), facilities, len(facilities), p)
		if err != nil {
			t.Fatal(err)
		}
		// The base answers for the built corpus, best-first TopK included;
		// the epoch adds the trip inserted off the map.
		for _, c := range []struct {
			name   string
			idx    *Epoch
			corpus *trajectory.Set
			gains  []*trajectory.Facility // routes the extra trips serve
			top    []Result
		}{
			{"frozen", frozen, trajectory.MustNewSet(built), routes[:1], top},
			{"epoch", ep, set, routes, nil},
		} {
			for _, f := range c.gains {
				if want, less := ExactServiceValue(cfg.variant, cfg.scenario, c.corpus, f.Stops, psi), ExactServiceValue(cfg.variant, cfg.scenario, without, f.Stops, psi); want <= less {
					t.Fatalf("%+v %s route %d: the extra trips add nothing (%v vs %v)", cfg, c.name, f.ID, want, less)
				}
			}
			vs, _, err := c.idx.ServiceValuesCtx(context.Background(), facilities, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range routes {
				want := ExactServiceValue(cfg.variant, cfg.scenario, c.corpus, f.Stops, psi)
				v, _, err := c.idx.ServiceValue(f, p)
				if err != nil {
					t.Fatal(err)
				}
				best := want
				for _, r := range c.top {
					if r.Facility == f {
						best = r.Service
					}
				}
				got := vs[len(vs)-len(routes)+i]
				if math.Abs(v-want) > 1e-9 || math.Abs(got-want) > 1e-9 || math.Abs(best-want) > 1e-9 {
					t.Fatalf("%+v %s route %d: ServiceValue %v, ServiceValues %v, best-first TopK %v; exact %v",
						cfg, c.name, f.ID, v, got, best, want)
				}
			}
		}
	}
}
