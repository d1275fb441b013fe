package shard

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// stressN scales a workload size up when TRAJCOVER_STRESS is set — the
// dedicated CI race job runs the heavy version; the default suite stays
// fast. The factor is sized for low-core CI runners: the churn tests
// pit spinning readers against a writer on however many cores exist,
// so wall-clock grows superlinearly with the script length.
func stressN(n int) int {
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		return n * 4
	}
	return n
}

// readerPause yields between reader iterations so the hammering
// goroutines cannot starve the writer (and the background rebuilds) on
// small core counts; the overlap under test is preserved — thousands
// of reads still land inside the write history.
func readerPause() { time.Sleep(50 * time.Microsecond) }

func manualPolicy() Policy { return Policy{Manual: true} }

// TestLiveEmptyDeltaMatchesFrozen: a freshly built Live index (all
// epochs frozen, empty overlays) must answer byte-identically — values
// and metrics — to the PR 3 frozen sharded path, across shard counts,
// orderings, and scenarios. This is the empty-delta anchor at the
// scatter-gather level.
func TestLiveEmptyDeltaMatchesFrozen(t *testing.T) {
	users := makeUsers(600, 4, 71)
	facilities := makeFacilities(24, 8, 72)
	p := Params{Scenario: service.Binary, Psi: 40}
	for _, n := range []int{1, 2, 4} {
		for _, o := range []tqtree.Ordering{tqtree.Basic, tqtree.ZOrder} {
			for _, sc := range []service.Scenario{service.Binary, service.PointCount, service.Length} {
				opts := Options{Shards: n, Tree: tqtree.Options{
					Variant: tqtree.FullTrajectory, Ordering: o, Beta: 8, Bounds: testBounds,
				}}
				fz, err := BuildFrozen(users, opts)
				if err != nil {
					t.Fatal(err)
				}
				lv := fz.Live(manualPolicy())
				p.Scenario = sc
				name := fmt.Sprintf("%d/%v/%v", n, o, sc)

				wantV, wantM, err := fz.ServiceValuesCtx(context.Background(), facilities, p, 2)
				if err != nil {
					t.Fatal(err)
				}
				gotV, gotM, err := lv.ServiceValuesCtx(context.Background(), facilities, p, 2)
				if err != nil {
					t.Fatal(err)
				}
				if gotM != wantM {
					t.Fatalf("%s: ServiceValues metrics %+v, frozen %+v", name, gotM, wantM)
				}
				for i := range wantV {
					if gotV[i] != wantV[i] {
						t.Fatalf("%s: ServiceValues[%d] = %v, frozen %v", name, i, gotV[i], wantV[i])
					}
				}

				wantTop, wantTM, err := fz.TopKCtx(context.Background(), facilities, 8, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				gotTop, gotTM, err := lv.TopKCtx(context.Background(), facilities, 8, p, 1)
				if err != nil {
					t.Fatal(err)
				}
				if gotTM != wantTM {
					t.Fatalf("%s: TopK metrics %+v, frozen %+v", name, gotTM, wantTM)
				}
				if len(gotTop) != len(wantTop) {
					t.Fatalf("%s: TopK lengths %d vs %d", name, len(gotTop), len(wantTop))
				}
				for i := range wantTop {
					if gotTop[i].Facility.ID != wantTop[i].Facility.ID || gotTop[i].Service != wantTop[i].Service {
						t.Fatalf("%s: TopK[%d] differs", name, i)
					}
				}
			}
		}
	}
}

// liveOracle tracks the logical corpus alongside a Live index so tests
// can rebuild the expected answers from scratch.
type liveOracle struct {
	byID map[trajectory.ID]*trajectory.Trajectory
}

func newLiveOracle(users []*trajectory.Trajectory) *liveOracle {
	o := &liveOracle{byID: make(map[trajectory.ID]*trajectory.Trajectory, len(users))}
	for _, u := range users {
		o.byID[u.ID] = u
	}
	return o
}

func (o *liveOracle) corpus() []*trajectory.Trajectory {
	ids := make([]int, 0, len(o.byID))
	for id := range o.byID {
		ids = append(ids, int(id))
	}
	// Deterministic order for the fresh build.
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	out := make([]*trajectory.Trajectory, len(ids))
	for i, id := range ids {
		out[i] = o.byID[trajectory.ID(id)]
	}
	return out
}

// TestLiveChurnMatchesFreshBuild: interleaved inserts and deletes over a
// live index (manual compaction, so every query exercises the overlay
// and the tombstone mask) answer like a fresh sharded build of the
// surviving corpus — before and after Compact.
func TestLiveChurnMatchesFreshBuild(t *testing.T) {
	users := makeUsers(800, 2, 73)
	facilities := makeFacilities(16, 8, 74)
	p := Params{Scenario: service.Binary, Psi: 40}
	for _, shards := range []int{1, 3} {
		opts := Options{Shards: shards, Partitioner: Hash{}, Tree: tqtree.Options{
			Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
		}}
		lv, err := BuildLive(users[:500], opts, manualPolicy())
		if err != nil {
			t.Fatal(err)
		}
		oracle := newLiveOracle(users[:500])
		rng := rand.New(rand.NewSource(75))
		feed := users[500:]
		for op := 0; op < 500; op++ {
			if rng.Intn(2) == 0 && len(feed) > 0 {
				u := feed[0]
				feed = feed[1:]
				if err := lv.Insert(u); err != nil {
					t.Fatal(err)
				}
				oracle.byID[u.ID] = u
			} else if len(oracle.byID) > 0 {
				var id trajectory.ID
				for k := range oracle.byID {
					id = k
					break
				}
				if ok, err := lv.Delete(id); err != nil || !ok {
					t.Fatalf("Delete(%d) = %v, %v", id, ok, err)
				}
				delete(oracle.byID, id)
				if ok, err := lv.Delete(id); err != nil || ok {
					t.Fatalf("second Delete(%d) = %v, %v", id, ok, err)
				}
			}
		}

		check := func(stage string) {
			corpus := oracle.corpus()
			fresh, err := BuildFrozen(corpus, opts)
			if err != nil {
				t.Fatal(err)
			}
			if lv.Len() != len(corpus) {
				t.Fatalf("%s: Len = %d, want %d", stage, lv.Len(), len(corpus))
			}
			wantV, _, err := fresh.ServiceValuesCtx(context.Background(), facilities, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotV, _, err := lv.ServiceValuesCtx(context.Background(), facilities, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantV {
				if gotV[i] != wantV[i] {
					t.Fatalf("%s (shards=%d): ServiceValues[%d] = %v, fresh = %v",
						stage, shards, i, gotV[i], wantV[i])
				}
			}
			wantTop, _, err := fresh.TopKCtx(context.Background(), facilities, 8, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			gotTop, _, err := lv.TopKCtx(context.Background(), facilities, 8, p, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i := range wantTop {
				if gotTop[i].Facility.ID != wantTop[i].Facility.ID || gotTop[i].Service != wantTop[i].Service {
					t.Fatalf("%s (shards=%d): TopK[%d] = (%d, %v), fresh = (%d, %v)", stage, shards, i,
						gotTop[i].Facility.ID, gotTop[i].Service, wantTop[i].Facility.ID, wantTop[i].Service)
				}
			}
			gotPar, _, err := lv.TopKCtx(context.Background(), facilities, 8, p, 4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gotTop {
				if gotPar[i] != gotTop[i] {
					t.Fatalf("%s: TopKParallel[%d] differs from TopK", stage, i)
				}
			}
		}
		check("pre-compact")
		if err := lv.Compact(); err != nil {
			t.Fatal(err)
		}
		for i, st := range lv.Stats() {
			if st.DeltaLen != 0 || st.Tombstones != 0 {
				t.Fatalf("shard %d after Compact: delta=%d tombstones=%d", i, st.DeltaLen, st.Tombstones)
			}
		}
		check("post-compact")
	}
}

// TestLiveAutoCompaction: crossing the MaxDelta threshold triggers a
// background rebuild that folds the overlay without being asked.
func TestLiveAutoCompaction(t *testing.T) {
	users := makeUsers(600, 2, 76)
	opts := Options{Shards: 1, Partitioner: Hash{}, Tree: tqtree.Options{
		Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
	}}
	lv, err := BuildLive(users[:200], opts, Policy{MaxDelta: 32})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[200:] {
		if err := lv.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := lv.Stats()[0]
		if st.Compactions >= 1 && st.DeltaLen < 32 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no background compaction: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := lv.Err(); err != nil {
		t.Fatalf("background rebuild error: %v", err)
	}
	if lv.Len() != 600 {
		t.Fatalf("Len = %d, want 600", lv.Len())
	}
}

// TestLiveDeletesDuringCompact races deletions against a synchronous
// Compact, then verifies the final corpus — the pending-tombstone merge
// at swap time must not resurrect trajectories that were deleted while
// they were being folded into the new base.
func TestLiveDeletesDuringCompact(t *testing.T) {
	rounds := stressN(6)
	users := makeUsers(400, 2, 79)
	facilities := makeFacilities(8, 8, 80)
	p := Params{Scenario: service.Binary, Psi: 40}
	opts := Options{Shards: 1, Partitioner: Hash{}, Tree: tqtree.Options{
		Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
	}}
	for round := 0; round < rounds; round++ {
		lv, err := BuildLive(users[:200], opts, manualPolicy())
		if err != nil {
			t.Fatal(err)
		}
		// Fill the overlay so the compaction has plenty to bake.
		for _, u := range users[200:] {
			if err := lv.Insert(u); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(int64(81 + round)))
		victims := map[trajectory.ID]struct{}{}
		for len(victims) < 100 {
			victims[trajectory.ID(rng.Intn(400))] = struct{}{}
		}
		done := make(chan error, 1)
		go func() { done <- lv.Compact() }()
		for id := range victims {
			if ok, err := lv.Delete(id); err != nil || !ok {
				t.Errorf("round %d: Delete(%d) = %v, %v", round, id, ok, err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		var survivors []*trajectory.Trajectory
		for _, u := range users {
			if _, gone := victims[u.ID]; !gone {
				survivors = append(survivors, u)
			}
		}
		if lv.Len() != len(survivors) {
			t.Fatalf("round %d: Len = %d, want %d", round, lv.Len(), len(survivors))
		}
		// A second compact folds any tombstones the deletes left behind;
		// answers must match a fresh build both before and after.
		fresh, err := BuildFrozen(survivors, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"post-race", "post-fold"} {
			for _, f := range facilities {
				want, _, err := fresh.ServiceValue(f, p)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := lv.ServiceValue(f, p)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("round %d %s: ServiceValue(%d) = %v, fresh = %v", round, stage, f.ID, got, want)
				}
			}
			if stage == "post-race" {
				if err := lv.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestLiveCrossShardIDReuseConsistentCapture: deleting an ID in one
// shard and re-inserting it at a location a geometric partitioner
// routes to another shard must never let a capture observe the ID
// alive in two shards — Epochs() is a write-consistent cut, so every
// capture stays restorable (cross-shard ID uniqueness) and queries
// never double-count.
func TestLiveCrossShardIDReuseConsistentCapture(t *testing.T) {
	users := makeUsers(200, 2, 90)
	lv, err := BuildLive(users, Options{Shards: 2, Partitioner: Grid{}, Tree: tqtree.Options{
		Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
	}}, manualPolicy())
	if err != nil {
		t.Fatal(err)
	}
	// Two versions of one ID at opposite corners, so Grid routes them
	// to different shards.
	const reused = trajectory.ID(150)
	corners := []*trajectory.Trajectory{
		trajectory.MustNew(reused, []geo.Point{geo.Pt(10, 10), geo.Pt(20, 20)}),
		trajectory.MustNew(reused, []geo.Point{geo.Pt(990, 990), geo.Pt(980, 980)}),
	}
	bounds := lv.Epochs()[0].Base().Bounds()
	if s0, s1 := (Grid{}).Assign(corners[0], bounds, 2), (Grid{}).Assign(corners[1], bounds, 2); s0 == s1 {
		t.Fatalf("test premise broken: both corners route to shard %d", s0)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i := 0; i < stressN(200); i++ {
			lv.Delete(reused)
			if err := lv.Insert(corners[i%2]); err != nil {
				t.Errorf("reinsert %d: %v", i, err)
				return
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 16 || !done.Load(); i++ {
				eps := lv.Epochs()
				alive := 0
				for _, ep := range eps {
					if _, ok := slices.BinarySearch(ep.SortedIDs(), reused); ok {
						alive++
					}
				}
				if alive > 1 {
					t.Errorf("reader %d: id %d alive in %d shards of one capture", r, reused, alive)
					return
				}
				// Every capture must pass the restore-time uniqueness
				// check — a torn cut would fail LiveFromEpochs exactly
				// like an unrestorable TQLIVE02 stream.
				if _, err := LiveFromEpochs(eps, Grid{}, manualPolicy()); err != nil {
					t.Errorf("reader %d: capture not restorable: %v", r, err)
					return
				}
				readerPause()
			}
		}(r)
	}
	wg.Wait()
}

// objective computes one trajectory's Binary objective for a facility —
// the incremental unit of the churn oracle below.
func objective(u *trajectory.Trajectory, f *trajectory.Facility, psi float64) float64 {
	return query.ObjectiveFromMask(tqtree.TwoPoint, service.Binary, u, service.MaskOf(u, f.Stops, psi))
}

// TestLiveConcurrentChurnPrefixConsistent is the concurrent-swap
// acceptance property test: reader goroutines hammer ServiceValue and
// TopK while a writer applies a scripted insert/delete history and
// background rebuilds swap epochs underneath them. Every answer must be
// byte-identical to a from-scratch build of some prefix of the write
// history (Binary scenario, so values are integral): the per-facility
// value after every prefix is precomputed incrementally, and each read
// must land in that set — no torn reads, no half-applied writes, and no
// lock is held for the duration of a rebuild (readers keep completing
// while rebuilds run; the test would deadlock or time out otherwise).
func TestLiveConcurrentChurnPrefixConsistent(t *testing.T) {
	nOps := stressN(400)
	users := makeUsers(1400, 2, 82)
	facilities := makeFacilities(6, 8, 83)
	const psi = 40.0
	p := Params{Scenario: service.Binary, Psi: psi}

	base := users[:600]
	feed := users[600:]
	opts := Options{Shards: 1, Partitioner: Hash{}, Tree: tqtree.Options{
		Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
	}}
	// Aggressive thresholds so several background swaps land mid-run.
	lv, err := BuildLive(base, opts, Policy{MaxDelta: 48})
	if err != nil {
		t.Fatal(err)
	}

	// Script the write history and precompute every prefix's per-facility
	// value and top-k answer.
	type op struct {
		insert *trajectory.Trajectory
		delete trajectory.ID
	}
	rng := rand.New(rand.NewSource(84))
	live := map[trajectory.ID]*trajectory.Trajectory{}
	liveIDs := []trajectory.ID{}
	for _, u := range base {
		live[u.ID] = u
		liveIDs = append(liveIDs, u.ID)
	}
	ops := make([]op, 0, nOps)
	for len(ops) < nOps {
		if rng.Intn(5) != 0 && len(feed) > 0 { // 80% inserts
			u := feed[0]
			feed = feed[1:]
			ops = append(ops, op{insert: u})
			live[u.ID] = u
			liveIDs = append(liveIDs, u.ID)
		} else if len(liveIDs) > 0 {
			i := rng.Intn(len(liveIDs))
			id := liveIDs[i]
			if _, ok := live[id]; !ok {
				continue
			}
			ops = append(ops, op{delete: id, insert: nil})
			delete(live, id)
			liveIDs[i] = liveIDs[len(liveIDs)-1]
			liveIDs = liveIDs[:len(liveIDs)-1]
		}
	}

	vals := make([][]float64, len(facilities)) // vals[f][prefix]
	legalVals := make([]map[float64]struct{}, len(facilities))
	for fi, f := range facilities {
		vals[fi] = make([]float64, nOps+1)
		var v float64
		for _, u := range base {
			v += objective(u, f, psi)
		}
		vals[fi][0] = v
		legalVals[fi] = map[float64]struct{}{v: {}}
		for oi, o := range ops {
			if o.insert != nil {
				v += objective(o.insert, f, psi)
			} else {
				// The scripted history only deletes live IDs, so the
				// deleted trajectory is findable at scripting time.
				v -= objective(opTarget(t, users, o.delete), f, psi)
			}
			vals[fi][oi+1] = v
			legalVals[fi][v] = struct{}{}
		}
	}
	legalTop := map[string]struct{}{}
	for v := 0; v <= nOps; v++ {
		legalTop[topKSignature(facilities, vals, v, 4)] = struct{}{}
	}

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for i, o := range ops {
			if o.insert != nil {
				if err := lv.Insert(o.insert); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			} else if ok, err := lv.Delete(o.delete); err != nil || !ok {
				t.Errorf("Delete(%d) = %v, %v", o.delete, ok, err)
				return
			}
			if i%8 == 7 {
				// Stretch the write history so background rebuilds and
				// reader traffic genuinely overlap it.
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	readers := 4
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(85 + r)))
			for i := 0; i < 32 || !writerDone.Load(); i++ {
				fi := rng.Intn(len(facilities))
				switch rng.Intn(3) {
				case 0:
					got, _, err := lv.ServiceValue(facilities[fi], p)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					if _, ok := legalVals[fi][got]; !ok {
						t.Errorf("reader %d: ServiceValue(%d) = %v matches no prefix", r, facilities[fi].ID, got)
						return
					}
				case 1:
					top, _, err := lv.TopKCtx(context.Background(), facilities, 4, p, 1)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					if _, ok := legalTop[resultSignature(top)]; !ok {
						t.Errorf("reader %d: TopK answer %q matches no prefix", r, resultSignature(top))
						return
					}
				default:
					top, _, err := lv.TopKCtx(context.Background(), facilities, 4, p, 2)
					if err != nil {
						t.Errorf("reader %d: %v", r, err)
						return
					}
					if _, ok := legalTop[resultSignature(top)]; !ok {
						t.Errorf("reader %d: TopKParallel answer %q matches no prefix", r, resultSignature(top))
						return
					}
				}
				reads.Add(1)
				readerPause()
			}
		}(r)
	}
	wg.Wait()
	if err := lv.Err(); err != nil {
		t.Fatalf("background rebuild error: %v", err)
	}
	// The run must have actually exercised swaps and readers. The last
	// queued rebuild may still be completing asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for lv.Stats()[0].Compactions == 0 {
		if time.Now().After(deadline) {
			t.Error("no background swap happened during the churn run")
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if reads.Load() == 0 {
		t.Error("no reads completed during the churn run")
	}
	// Final state must equal the full history's corpus exactly.
	got, _, err := lv.ServiceValue(facilities[0], p)
	if err != nil {
		t.Fatal(err)
	}
	if want := vals[0][nOps]; got != want {
		t.Fatalf("final ServiceValue = %v, want %v", got, want)
	}
}

// opTarget resolves a scripted delete's trajectory by ID.
func opTarget(t *testing.T, all []*trajectory.Trajectory, id trajectory.ID) *trajectory.Trajectory {
	t.Helper()
	for _, u := range all {
		if u.ID == id {
			return u
		}
	}
	t.Fatalf("scripted delete of unknown id %d", id)
	return nil
}

// topKSignature computes the expected top-k answer for prefix v with the
// engine's deterministic tie-break (value descending, ID ascending).
func topKSignature(facilities []*trajectory.Facility, vals [][]float64, v, k int) string {
	type fv struct {
		id  trajectory.ID
		val float64
	}
	row := make([]fv, len(facilities))
	for i, f := range facilities {
		row[i] = fv{f.ID, vals[i][v]}
	}
	for i := 1; i < len(row); i++ {
		for j := i; j > 0; j-- {
			a, b := row[j-1], row[j]
			if b.val > a.val || (b.val == a.val && b.id < a.id) {
				row[j-1], row[j] = b, a
			} else {
				break
			}
		}
	}
	if k > len(row) {
		k = len(row)
	}
	sig := ""
	for _, r := range row[:k] {
		sig += fmt.Sprintf("%d:%v,", r.id, r.val)
	}
	return sig
}

func resultSignature(res []query.Result) string {
	sig := ""
	for _, r := range res {
		sig += fmt.Sprintf("%d:%v,", r.Facility.ID, r.Service)
	}
	return sig
}

// TestLiveConcurrentChurnMultiShard extends the prefix-consistency
// check to several shards: each shard's epoch is some prefix of that
// shard's own write history, so a ServiceValue must equal a sum of one
// legal per-shard value per shard.
func TestLiveConcurrentChurnMultiShard(t *testing.T) {
	nOps := stressN(200)
	users := makeUsers(400+nOps, 2, 86)
	facilities := makeFacilities(4, 8, 87)
	const psi = 40.0
	p := Params{Scenario: service.Binary, Psi: psi}
	const shards = 2
	opts := Options{Shards: shards, Partitioner: Hash{}, Tree: tqtree.Options{
		Variant: tqtree.TwoPoint, Ordering: tqtree.ZOrder, Beta: 8, Bounds: testBounds,
	}}
	base := users[:400]
	feed := users[400:]
	lv, err := BuildLive(base, opts, Policy{MaxDelta: 32})
	if err != nil {
		t.Fatal(err)
	}

	// Script inserts only (deletes route by lookup, which would need the
	// target's shard too — inserts exercise the same swap machinery) and
	// track per-shard prefix value sets.
	bounds := lv.Epochs()[0].Base().Bounds()
	shardOf := func(u *trajectory.Trajectory) int {
		return Hash{}.Assign(u, bounds, shards)
	}
	perShard := make([][]map[float64]struct{}, len(facilities))
	cur := make([][]float64, len(facilities))
	for fi, f := range facilities {
		perShard[fi] = make([]map[float64]struct{}, shards)
		cur[fi] = make([]float64, shards)
		for si := 0; si < shards; si++ {
			perShard[fi][si] = map[float64]struct{}{}
		}
		for _, u := range base {
			cur[fi][shardOf(u)] += objective(u, f, psi)
		}
		for si := 0; si < shards; si++ {
			perShard[fi][si][cur[fi][si]] = struct{}{}
		}
	}
	ops := feed[:nOps]
	for _, u := range ops {
		for fi, f := range facilities {
			si := shardOf(u)
			cur[fi][si] += objective(u, f, psi)
			perShard[fi][si][cur[fi][si]] = struct{}{}
		}
	}
	legal := make([]map[float64]struct{}, len(facilities))
	for fi := range facilities {
		legal[fi] = map[float64]struct{}{}
		for a := range perShard[fi][0] {
			for b := range perShard[fi][1] {
				legal[fi][a+b] = struct{}{}
			}
		}
	}

	var writerDone atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer writerDone.Store(true)
		for _, u := range ops {
			if err := lv.Insert(u); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(88 + r)))
			for !writerDone.Load() {
				fi := rng.Intn(len(facilities))
				got, _, err := lv.ServiceValue(facilities[fi], p)
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if _, ok := legal[fi][got]; !ok {
					t.Errorf("reader %d: ServiceValue(%d) = %v matches no per-shard prefix sum",
						r, facilities[fi].ID, got)
					return
				}
				readerPause()
			}
		}(r)
	}
	wg.Wait()
	if err := lv.Err(); err != nil {
		t.Fatalf("background rebuild error: %v", err)
	}
	// Final value exact.
	for fi, f := range facilities {
		got, _, err := lv.ServiceValue(f, p)
		if err != nil {
			t.Fatal(err)
		}
		want := cur[fi][0] + cur[fi][1]
		if got != want {
			t.Fatalf("final ServiceValue(%d) = %v, want %v", f.ID, got, want)
		}
	}
}
