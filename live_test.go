package trajcover

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// liveWorkload returns a serving corpus, an insert feed, and routes.
func liveWorkload(t *testing.T) (base, feed []*Trajectory, routes []*Facility) {
	t.Helper()
	city := NewYorkCity()
	users := TaxiTrips(city, 3000, 11)
	routes = BusRoutes(city, 24, 12, 12)
	return users[:2000], users[2000:], routes
}

// TestLiveIndexMatchesIndex: a one-shard Index after churn answers
// exactly like a three-shard FrozenIndex built over the corpus the churn
// leaves (Binary, so values are integral and comparisons exact), with its
// pending writes and once they are compacted.
func TestLiveIndexMatchesIndex(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}

	lv, err := NewIndex(base, IndexOptions{
		Ordering: ZOrdering,
		Policy:   LivePolicy{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range feed[:500] {
		if err := lv.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range base[:300] {
		if ok, err := lv.Delete(u.ID); err != nil || !ok {
			t.Fatalf("live Delete(%d) = %v, %v", u.ID, ok, err)
		}
	}
	corpus := append(append([]*Trajectory{}, base[300:]...), feed[:500]...)
	ref, err := NewFrozenIndex(corpus, IndexOptions{Ordering: ZOrdering, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if lv.Len() != ref.Len() {
		t.Fatalf("Len = %d, ref = %d", lv.Len(), ref.Len())
	}

	compare := func(stage string) {
		wantVals, err := ref.ServiceValues(routes, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		gotVals, err := lv.ServiceValues(routes, q, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantVals {
			if gotVals[i] != wantVals[i] {
				t.Fatalf("%s: ServiceValues[%d] = %v, ref = %v", stage, i, gotVals[i], wantVals[i])
			}
		}
		want, err := ref.TopK(routes, 8, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lv.TopK(routes, 8, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i].Facility.ID != want[i].Facility.ID || got[i].Service != want[i].Service {
				t.Fatalf("%s: TopK[%d] = (%d, %v), ref = (%d, %v)", stage, i,
					got[i].Facility.ID, got[i].Service, want[i].Facility.ID, want[i].Service)
			}
		}
		gotPar, err := lv.TopKParallel(routes, 8, q, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if gotPar[i] != got[i] {
				t.Fatalf("%s: TopKParallel[%d] differs from TopK", stage, i)
			}
		}
	}
	compare("overlay")
	st := lv.Stats()[0]
	if st.DeltaLen != 500 || st.Tombstones != 300 {
		t.Fatalf("Stats = %+v, want delta 500 tombstones 300", st)
	}
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	st = lv.Stats()[0]
	if st.DeltaLen != 0 || st.Tombstones != 0 || st.Compactions != 1 {
		t.Fatalf("post-compact Stats = %+v", st)
	}
	compare("compacted")
}

// TestIndexLiveConversion: an Index of one shard or three, frozen and
// made live again, keeps its answers and takes writes.
func TestIndexLiveConversion(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}

	idx, err := NewIndex(base, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	lv, err := fz.Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.TopK(routes, 6, q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lv.TopK(routes, 6, q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Facility.ID != want[i].Facility.ID || got[i].Service != want[i].Service {
			t.Fatalf("converted TopK[%d] differs", i)
		}
	}
	if err := lv.Insert(feed[0]); err != nil {
		t.Fatal(err)
	}
	if lv.Len() != idx.Len()+1 {
		t.Fatalf("Len after insert = %d", lv.Len())
	}

	sidx, err := NewIndex(base, IndexOptions{Ordering: ZOrdering, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := sidx.Insert(feed[1]); err != nil {
		t.Fatal(err)
	}
	if ok, err := sidx.Delete(base[0].ID); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	fidx, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if fidx.NumShards() != 3 {
		t.Fatalf("NumShards = %d", fidx.NumShards())
	}
	flv, err := fidx.Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := flv.Insert(feed[2]); err != nil {
		t.Fatal(err)
	}
	if flv.NumShards() != 3 || flv.Len() != len(base)+1 {
		t.Fatalf("frozen-converted Len = %d", flv.Len())
	}
}

// frozenReading is everything a FrozenIndex answers that a write through
// its Live() could disturb if the two shared anything mutable.
type frozenReading struct {
	top   []Ranked
	vals  []float64
	cov   CoverageResult
	n     int
	sizes []int
	snap  []byte
}

func readFrozen(fz *FrozenIndex, routes []*Facility, q Query) (frozenReading, error) {
	var r frozenReading
	var err error
	if r.top, err = fz.TopK(routes, 6, q); err != nil {
		return r, err
	}
	if r.vals, err = fz.ServiceValues(routes, q, 2); err != nil {
		return r, err
	}
	if r.cov, err = fz.MaxCoverage(routes, 4, q, CoverageOptions{}); err != nil {
		return r, err
	}
	r.n, r.sizes = fz.Len(), fz.ShardSizes()
	var buf bytes.Buffer
	err = fz.WriteSnapshot(&buf)
	r.snap = buf.Bytes()
	return r, err
}

// diff names the first reading of got that differs from want; values and
// coverage compare bit for bit.
func (want frozenReading) diff(got frozenReading) error {
	switch {
	case len(got.top) != len(want.top):
		return fmt.Errorf("TopK has %d results, want %d", len(got.top), len(want.top))
	case !slices.Equal(got.vals, want.vals):
		return fmt.Errorf("ServiceValues %v, want %v", got.vals, want.vals)
	case !reflect.DeepEqual(got.cov, want.cov):
		return fmt.Errorf("MaxCoverage value %v serving %d, want %v serving %d", got.cov.Value, got.cov.UsersServed, want.cov.Value, want.cov.UsersServed)
	case got.n != want.n || !slices.Equal(got.sizes, want.sizes):
		return fmt.Errorf("Len %d, ShardSizes %v; want %d, %v", got.n, got.sizes, want.n, want.sizes)
	case !bytes.Equal(got.snap, want.snap):
		return fmt.Errorf("snapshot of %d bytes differs from the %d written before", len(got.snap), len(want.snap))
	}
	for i, r := range want.top {
		if got.top[i].Facility.ID != r.Facility.ID || got.top[i].Service != r.Service {
			return fmt.Errorf("TopK[%d] = (%d, %v), want (%d, %v)", i, got.top[i].Facility.ID, got.top[i].Service, r.Facility.ID, r.Service)
		}
	}
	return nil
}

// TestFrozenStaysFrozenAfterLive: Live hands the Index it returns the
// FrozenIndex's own shards, so nothing written to that Index may show in
// the FrozenIndex. At 1 and 3 shards, readers query the FrozenIndex while
// the converted Index inserts, tombstones base trajectories, drops delta
// ones and compacts; every reading — TopK bit for bit, ServiceValues,
// MaxCoverage, Len, ShardSizes and the snapshot bytes — stays what it was
// before the conversion. Run it under -race.
func TestFrozenStaysFrozenAfterLive(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	rounds := 40
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		rounds *= 4
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("%d shards", shards), func(t *testing.T) {
			fz, err := NewFrozenIndex(base, IndexOptions{Ordering: ZOrdering, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			want, err := readFrozen(fz, routes, q)
			if err != nil {
				t.Fatal(err)
			}
			lv, err := fz.Live(LivePolicy{Manual: true})
			if err != nil {
				t.Fatal(err)
			}

			// The writer starts once both readers are under way.
			stop := make(chan struct{})
			errs := make(chan error, 2)
			var wg, started sync.WaitGroup
			for r := 0; r < 2; r++ {
				wg.Add(1)
				started.Add(1)
				go func() {
					defer wg.Done()
					for first := true; ; first = false {
						got, err := readFrozen(fz, routes, q)
						if err == nil {
							err = want.diff(got)
						}
						if first {
							started.Done()
						}
						if err != nil {
							errs <- err
							return
						}
						select {
						case <-stop:
							return
						default:
						}
					}
				}()
			}
			started.Wait()
			for i, u := range feed[:rounds] {
				if err := lv.Insert(u); err != nil {
					t.Fatal(err)
				}
				if ok, err := lv.Delete(base[i].ID); err != nil || !ok {
					t.Fatalf("Delete(base %d) = %v, %v", base[i].ID, ok, err)
				}
				if i%2 == 0 {
					if ok, err := lv.Delete(u.ID); err != nil || !ok {
						t.Fatalf("Delete(delta %d) = %v, %v", u.ID, ok, err)
					}
				}
				if i%10 == 9 {
					if err := lv.Compact(); err != nil {
						t.Fatal(err)
					}
				}
			}
			close(stop)
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("during writes to its Live(): %v", err)
			}
			if got, err := readFrozen(fz, routes, q); err != nil {
				t.Fatal(err)
			} else if err := want.diff(got); err != nil {
				t.Fatalf("after writes to its Live(): %v", err)
			}
			if n := len(base) - rounds/2; lv.Len() != n {
				t.Fatalf("converted index Len = %d, want %d", lv.Len(), n)
			}
		})
	}
}

// restoredFrozenSharded freezes sidx, writes it as a TQSHRD03 stream and
// reads it back.
func restoredFrozenSharded(t *testing.T, sidx *Index) *FrozenIndex {
	t.Helper()
	fz, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fz.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFrozenSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return restored
}

// TestRestoredSnapshotBecomesMutable: a mutable sharded index persists as
// its frozen form and comes back mutable as the restored index's Live —
// inserts route by the recorded partitioner kind, deletes by ID, and the
// answers move by exactly the trajectories written.
func TestRestoredSnapshotBecomesMutable(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	sidx, err := NewIndex(base, IndexOptions{Ordering: ZOrdering, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := restoredFrozenSharded(t, sidx).Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lv.Insert(feed[0]); err != nil {
		t.Fatal(err)
	}
	if ok, err := lv.Delete(base[1].ID); err != nil || !ok {
		t.Fatalf("Delete on restored live index = %v, %v", ok, err)
	}
	want, err := sidx.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := lv.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	add, err := NewIndex([]*Trajectory{feed[0]}, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	dv, err := add.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	del, err := NewIndex([]*Trajectory{base[1]}, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	rv, err := del.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if got != want+dv-rv {
		t.Fatalf("restored live ServiceValue = %v, want %v", got, want+dv-rv)
	}
}

// TestLiveSnapshotUnderWrites checkpoints a live index while a writer
// keeps churning: the stream must restore to a consistent index whose
// corpus is some prefix of the write history, and the writer is never
// blocked for the duration of the serialization.
func TestLiveSnapshotUnderWrites(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	lv, err := NewIndex(base, IndexOptions{
		Ordering: ZOrdering,
		Shards:   2,
		Policy:   LivePolicy{MaxDelta: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, u := range feed {
			if err := lv.Insert(u); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
		}
	}()
	var buf bytes.Buffer
	if err := lv.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	restored, err := ReadLiveSnapshot(bytes.NewReader(buf.Bytes()), LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	// The checkpoint captured some per-shard prefix of the history.
	if n := restored.Len(); n < len(base) || n > len(base)+len(feed) {
		t.Fatalf("restored Len = %d, want within [%d, %d]", n, len(base), len(base)+len(feed))
	}
	// The restored index serves and stays mutable.
	if _, err := restored.TopK(routes, 4, q); err != nil {
		t.Fatal(err)
	}
	extra := TaxiTrips(NewYorkCity(), len(base)+len(feed)+1, 99)[len(base)+len(feed):]
	if err := restored.Insert(extra[0]); err != nil {
		t.Fatal(err)
	}
	if err := restored.Compact(); err != nil {
		t.Fatal(err)
	}
}

// TestLiveConcurrentPublicAPI exercises the public concurrency
// guarantee end to end: goroutines on every query method while a writer
// inserts and deletes and background compactions swap epochs.
func TestLiveConcurrentPublicAPI(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	lv, err := NewIndex(base, IndexOptions{
		Ordering: ZOrdering,
		Shards:   2,
		Policy:   LivePolicy{MaxDelta: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i, u := range feed {
			if err := lv.Insert(u); err != nil {
				t.Errorf("Insert: %v", err)
				return
			}
			if i%3 == 0 {
				lv.Delete(base[i].ID)
			}
			if i%16 == 15 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 16 || !done.Load(); i++ {
				switch i % 4 {
				case 0:
					if _, err := lv.ServiceValue(routes[i%len(routes)], q); err != nil {
						t.Errorf("ServiceValue: %v", err)
						return
					}
				case 1:
					if _, err := lv.TopK(routes, 4, q); err != nil {
						t.Errorf("TopK: %v", err)
						return
					}
				case 2:
					if _, err := lv.ServiceValues(routes[:6], q, 2); err != nil {
						t.Errorf("ServiceValues: %v", err)
						return
					}
				default:
					if _, err := lv.TopKParallel(routes, 4, q, 2); err != nil {
						t.Errorf("TopKParallel: %v", err)
						return
					}
				}
				// Yield so the hammering readers cannot starve the writer
				// on small core counts.
				time.Sleep(50 * time.Microsecond)
			}
		}(r)
	}
	wg.Wait()
	if err := lv.Err(); err != nil {
		t.Fatalf("background rebuild error: %v", err)
	}
	// Writer applied len(feed) inserts and len(feed)/3 (+1: i=0) deletes.
	wantLen := len(base) + len(feed) - (len(feed)+2)/3
	if lv.Len() != wantLen {
		t.Fatalf("Len = %d, want %d", lv.Len(), wantLen)
	}
}

// TestLivePolicyFractionTrigger pins the compaction trigger a zero
// LivePolicy gets besides MaxDelta: a shard folds once its pending writes
// reach 25% of its base, and at least 64 of them. A new tenant's empty
// base folds after 64 writes rather than 4096, and a 1,000-trajectory
// base after 250.
func TestLivePolicyFractionTrigger(t *testing.T) {
	users := TaxiTrips(NewYorkCity(), 1250, 17)
	for _, tc := range []struct {
		base, foldAt int
	}{{0, 64}, {1000, 250}} {
		idx, err := NewIndex(users[:tc.base], IndexOptions{Ordering: ZOrdering})
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range users[tc.base : tc.base+tc.foldAt] {
			if i == tc.foldAt-1 {
				// A rebuild triggered one write early lands within
				// milliseconds at this size.
				time.Sleep(100 * time.Millisecond)
			}
			if st := idx.Stats()[0]; st.Compactions != 0 {
				t.Fatalf("base %d: a fold landed after %d writes, want it after %d", tc.base, i, tc.foldAt)
			}
			if err := idx.Insert(u); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for idx.Stats()[0].Compactions == 0 {
			if time.Now().After(deadline) {
				t.Fatalf("base %d: no fold after %d writes", tc.base, tc.foldAt)
			}
			time.Sleep(time.Millisecond)
		}
		if st := idx.Stats()[0]; st.DeltaLen != 0 || st.Len != tc.base+tc.foldAt {
			t.Fatalf("base %d: after the fold DeltaLen %d, Len %d; want 0, %d", tc.base, st.DeltaLen, st.Len, tc.base+tc.foldAt)
		}
		if err := idx.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
