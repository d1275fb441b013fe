package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestLiveTombstoneWordBoundaries: a live shard's tombstones are one bit
// per base ordinal, so the bits at the edges of a bitmap word are where
// an off-by-one would hide. Over bases of 64·k − 1, 64·k and 64·k + 1
// trajectories, it deletes the base ordinals 0, 63, 64 and Len()−1,
// re-inserts over one tombstone, then compacts while more deletes land —
// of base trajectories and of baking delta items. For both orderings,
// every variant and every scenario it accepts, each stage answers like a
// fresh build of the logical corpus: exactly for Binary, up to float
// summation order otherwise.
func TestLiveTombstoneWordBoundaries(t *testing.T) {
	const k = 32 // a base large enough that a rebuild outlasts a few writes
	for _, o := range []tqtree.Ordering{tqtree.Basic, tqtree.ZOrder} {
		for _, v := range []tqtree.Variant{tqtree.TwoPoint, tqtree.Segmented, tqtree.FullTrajectory} {
			scenarios := []service.Scenario{service.Binary, service.PointCount, service.Length}
			if v == tqtree.TwoPoint {
				scenarios = scenarios[:1]
			}
			for _, n := range []int{64*k - 1, 64 * k, 64*k + 1} {
				name := fmt.Sprintf("%v/%v/%d", o, v, n)
				opts := Options{Shards: 1, Partitioner: Hash{}, Tree: tqtree.Options{
					Variant: v, Ordering: o, Beta: 8, Bounds: testBounds,
				}}
				users := makeUsers(n+28, 4, int64(96+n))
				lv, err := BuildLive(users[:n], opts, manualPolicy())
				if err != nil {
					t.Fatal(err)
				}
				oracle := newLiveOracle(users[:n])
				// Beside a spread of routes, one route along each trajectory
				// at or next to a word edge, so masking the wrong bit moves
				// an answer.
				tab := lv.Epochs()[0].Base().Table()
				last := int32(tab.Len() - 1)
				facilities := makeFacilities(12, 8, 95)
				for _, ord := range []int32{0, 1, 62, 63, 64, 65, last - 1, last} {
					facilities = append(facilities, trajectory.MustNewFacility(trajectory.ID(100+ord), tab.Points(ord)))
				}
				del := func(id trajectory.ID) {
					t.Helper()
					if ok, err := lv.Delete(id); err != nil || !ok {
						t.Fatalf("%s: Delete(%d) = %v, %v", name, id, ok, err)
					}
					delete(oracle.byID, id)
				}
				check := func(stage string) {
					t.Helper()
					corpus := oracle.corpus()
					fresh, err := BuildFrozen(corpus, opts)
					if err != nil {
						t.Fatal(err)
					}
					if lv.Len() != len(corpus) {
						t.Fatalf("%s %s: Len = %d, want %d", name, stage, lv.Len(), len(corpus))
					}
					ids := make([]trajectory.ID, len(corpus))
					for i, u := range corpus {
						ids[i] = u.ID
					}
					if got := lv.Epochs()[0].SortedIDs(); !slices.Equal(got, ids) {
						t.Fatalf("%s %s: SortedIDs differs from the logical corpus (%d ids, want %d)", name, stage, len(got), len(ids))
					}
					for _, sc := range scenarios {
						p := Params{Scenario: sc, Psi: 40}
						want, _, err := fresh.ServiceValuesCtx(context.Background(), facilities, p, 1)
						if err != nil {
							t.Fatal(err)
						}
						got, _, err := lv.ServiceValuesCtx(context.Background(), facilities, p, 2)
						if err != nil {
							t.Fatal(err)
						}
						for i := range want {
							if got[i] != want[i] && (sc == service.Binary || math.Abs(got[i]-want[i]) > 1e-9*(1+want[i])) {
								t.Fatalf("%s %s %v: ServiceValues[%d] = %v, fresh = %v", name, stage, sc, i, got[i], want[i])
							}
						}
						if sc != service.Binary {
							continue
						}
						wantTop, _, err := fresh.TopKCtx(context.Background(), facilities, 4, p, 1)
						if err != nil {
							t.Fatal(err)
						}
						gotTop, _, err := lv.TopKCtx(context.Background(), facilities, 4, p, 1)
						if err != nil {
							t.Fatal(err)
						}
						if resultSignature(gotTop) != resultSignature(wantTop) {
							t.Fatalf("%s %s: TopK = %s, fresh = %s", name, stage, resultSignature(gotTop), resultSignature(wantTop))
						}
					}
				}

				edges := []trajectory.ID{tab.ID(0), tab.ID(63), tab.ID(64), tab.ID(last)}
				for _, id := range edges {
					del(id)
				}
				want := slices.Clone(edges)
				slices.Sort(want)
				if got := lv.Epochs()[0].TombstoneIDs(); !slices.Equal(got, want) {
					t.Fatalf("%s: TombstoneIDs = %v, want %v", name, got, want)
				}
				check("edge tombstones")

				insert := func(u *trajectory.Trajectory) {
					t.Helper()
					if err := lv.Insert(u); err != nil {
						t.Fatal(err)
					}
					oracle.byID[u.ID] = u
				}
				// The ID at ordinal 63 returns with other points.
				back := trajectory.MustNew(edges[1], []geo.Point{geo.Pt(500, 500), geo.Pt(520, 510)})
				insert(back)
				for _, u := range users[n : n+24] {
					insert(u)
				}
				check("re-insert over a tombstone")

				// Compact while writes land on the build in flight: deletes
				// of the next base ordinals at the word edges, of the
				// re-inserted trajectory and of the baking delta's first
				// half and last item, and inserts, the first of them
				// deleted again.
				done := make(chan error, 1)
				go func() { done <- lv.Compact() }()
				for building := false; !building && len(done) == 0; runtime.Gosched() {
					lv.wmu.RLock()
					building = lv.shards[0].building
					lv.wmu.RUnlock()
				}
				for _, id := range []trajectory.ID{tab.ID(1), tab.ID(62), tab.ID(65), tab.ID(last - 1), back.ID} {
					del(id)
				}
				for _, u := range users[n : n+12] {
					del(u.ID)
				}
				del(users[n+23].ID)
				for _, u := range users[n+24:] {
					insert(u)
				}
				del(users[n+24].ID)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				check("compact under deletes")
				if err := lv.Compact(); err != nil {
					t.Fatal(err)
				}
				if st := lv.Stats()[0]; st.DeltaLen != 0 || st.Tombstones != 0 {
					t.Fatalf("%s: after the second Compact: delta %d, tombstones %d", name, st.DeltaLen, st.Tombstones)
				}
				check("folded")
			}
		}
	}
}
