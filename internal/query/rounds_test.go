package query

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestTopKRoundsTable drives the schedule from scripted tables, because
// real trees almost never produce a bound equal to a value: small integer
// values with slack 0–2 make bounds that equal the k-th value, equal each
// other and straddle rank k on nearly every draw. The answer must be the
// table's top k, every batch must arrive in bound order and start where
// the last one ended, and the facilities evaluated must cover what a
// one-at-a-time best-first search needs and stay under twice that plus k.
// (internal/dist's TestFrontendStopRuleTies runs the same tables through
// the frontend's RPCs.)
func TestTopKRoundsTable(t *testing.T) {
	rng := rand.New(rand.NewSource(371))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		facs := make([]*trajectory.Facility, n)
		values, bounds := make([]float64, n), make([]float64, n)
		for i, id := range rng.Perm(2 * n)[:n] {
			facs[i] = trajectory.MustNewFacility(trajectory.ID(id), []geo.Point{geo.Pt(1, 1)})
			values[i] = float64(rng.Intn(4))
			bounds[i] = values[i] + float64(rng.Intn(3))
		}
		want := Results(facs, values, 0)
		for _, k := range []int{-1, 0, 1, 2, 8, n, n + 5} {
			var seen []int
			rounds := 0
			got, evaluated, err := TopKRounds(facs, bounds, k, func(batch []int) ([]float64, error) {
				rounds++
				out := make([]float64, len(batch))
				for j, i := range batch {
					if len(seen) > 0 && ranksBefore(bounds[i], facs[i].ID, bounds[seen[len(seen)-1]], facs[seen[len(seen)-1]].ID) {
						t.Fatalf("trial %d k %d: facility %d sent after one it ranks before", trial, k, facs[i].ID)
					}
					seen = append(seen, i)
					out[j] = values[i]
				}
				return out, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			kc := max(min(k, n), 0)
			if len(got) != kc || evaluated != len(seen) {
				t.Fatalf("trial %d n %d k %d: %d results, %d evaluated, %d sent", trial, n, k, len(got), evaluated, len(seen))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("trial %d n %d k %d rank %d: (%d, %v), want (%d, %v)", trial, n, k, i,
						got[i].Facility.ID, got[i].Service, want[i].Facility.ID, want[i].Service)
				}
			}
			if kc == 0 {
				continue
			}
			// Best-first evaluates exactly the facilities whose bound
			// could displace the final k-th result.
			kth, needed := want[kc-1], 0
			for i, f := range facs {
				if !ranksBefore(kth.Service, kth.Facility.ID, bounds[i], f.ID) {
					needed++
				}
			}
			if evaluated < needed || evaluated >= 2*needed+kc {
				t.Fatalf("trial %d n %d k %d: evaluated %d facilities, best-first needs %d", trial, n, k, evaluated, needed)
			}
			// Doubling from k: round r sends at most k·2^r facilities.
			if sent := kc * (1<<rounds - 1); evaluated > sent {
				t.Fatalf("trial %d n %d k %d: %d facilities in %d rounds", trial, n, k, evaluated, rounds)
			}
		}
	}
}

// TestTopKRoundsEvalError: a failed round aborts the schedule with the
// error and no partial answer.
func TestTopKRoundsEvalError(t *testing.T) {
	facs := makeFacilities(16, 2, 5)
	boom := errors.New("boom")
	bounds := make([]float64, len(facs))
	for i := range bounds {
		bounds[i] = 1 // above every value: no round may cut
	}
	calls := 0
	got, _, err := TopKRounds(facs, bounds, 2, func(batch []int) ([]float64, error) {
		if calls++; calls == 2 {
			return nil, boom
		}
		return make([]float64, len(batch)), nil
	})
	if !errors.Is(err, boom) || got != nil {
		t.Fatalf("TopKRounds = %v, %v; want nil and the eval error", got, err)
	}
}

// TestSeedBound pins the bound every top-k starts from, on both layouts
// (epoch_test.go covers the overlay's share): it is sound (never below the exact value), it is the
// optimistic remainder the best-first search seeds with, and its descent
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
