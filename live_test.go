package trajcover

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rewriteShardedHeaderCRC recomputes the TQSHRD03 header checksum over
// data[:headerEnd] in place — used to forge a snapshot whose partitioner
// kind this build does not know without tripping the CRC.
func rewriteShardedHeaderCRC(t *testing.T, data []byte, headerEnd int) []byte {
	t.Helper()
	if headerEnd+4 > len(data) {
		t.Fatal("stream too short for header CRC")
	}
	binary.LittleEndian.PutUint32(data[headerEnd:], crc32.ChecksumIEEE(data[:headerEnd]))
	return data
}

// liveWorkload returns a serving corpus, an insert feed, and routes.
func liveWorkload(t *testing.T) (base, feed []*Trajectory, routes []*Facility) {
	t.Helper()
	city := NewYorkCity()
	users := TaxiTrips(city, 3000, 11)
	routes = BusRoutes(city, 24, 12, 12)
	return users[:2000], users[2000:], routes
}

// TestLiveIndexMatchesIndex: a LiveIndex after churn answers exactly
// like a mutable Index that applied the same operations (Binary, so
// values are integral and comparisons exact).
func TestLiveIndexMatchesIndex(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}

	lv, err := NewLiveIndex(base, LiveIndexOptions{
		Index:  IndexOptions{Ordering: ZOrdering},
		Policy: LivePolicy{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewIndex(base, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range feed[:500] {
		if err := lv.Insert(u); err != nil {
			t.Fatal(err)
		}
		if err := ref.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range base[:300] {
		if ok, err := lv.Delete(u.ID); err != nil || !ok {
			t.Fatalf("live Delete(%d) = %v, %v", u.ID, ok, err)
		}
		if !ref.Delete(u) {
			t.Fatalf("ref Delete(%d) failed", u.ID)
		}
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
	st := lv.Stats()
	if st.DeltaLen != 500 || st.Tombstones != 300 {
		t.Fatalf("Stats = %+v, want delta 500 tombstones 300", st)
	}
	if err := lv.Compact(); err != nil {
		t.Fatal(err)
	}
	st = lv.Stats()
	if st.DeltaLen != 0 || st.Tombstones != 0 || st.Compactions != 1 {
		t.Fatalf("post-compact Stats = %+v", st)
	}
	compare("compacted")
}

// TestIndexLiveConversion: Index.Live and ShardedIndex.Live preserve
// answers and make the result mutable.
func TestIndexLiveConversion(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}

	idx, err := NewIndex(base, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := idx.Live(LivePolicy{Manual: true})
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

	sidx, err := NewShardedIndex(base, ShardOptions{Shards: 3, Index: IndexOptions{Ordering: ZOrdering}})
	if err != nil {
		t.Fatal(err)
	}
	slv, err := sidx.Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if slv.NumShards() != 3 {
		t.Fatalf("NumShards = %d", slv.NumShards())
	}
	if err := slv.Insert(feed[1]); err != nil {
		t.Fatal(err)
	}
	if ok, err := slv.Delete(base[0].ID); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}

	fidx, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	flv, err := fidx.Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := flv.Insert(feed[2]); err != nil {
		t.Fatal(err)
	}
	if flv.Len() != len(base)+1 {
		t.Fatalf("frozen-converted Len = %d", flv.Len())
	}
}

// restoredFrozenSharded freezes sidx, writes it as a TQSHRD03 stream —
// passed through forge, if any — and reads it back.
func restoredFrozenSharded(t *testing.T, sidx *ShardedIndex, forge func(data []byte) []byte) *FrozenShardedIndex {
	t.Helper()
	fz, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fz.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if forge != nil {
		data = forge(data)
	}
	restored, err := ReadFrozenShardedSnapshot(bytes.NewReader(data))
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
	sidx, err := NewShardedIndex(base, ShardOptions{Shards: 2, Index: IndexOptions{Ordering: ZOrdering}})
	if err != nil {
		t.Fatal(err)
	}
	lv, err := restoredFrozenSharded(t, sidx, nil).Live(LivePolicy{Manual: true})
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

// TestErrImmutableTyped: a restored index whose partitioner kind this
// build does not know reports ErrImmutable (testable with errors.Is and
// IsImmutable) from its live form's Insert, while Delete still works.
func TestErrImmutableTyped(t *testing.T) {
	base, feed, _ := liveWorkload(t)
	sidx, err := NewShardedIndex(base[:500], ShardOptions{Shards: 2, Index: IndexOptions{Ordering: ZOrdering}})
	if err != nil {
		t.Fatal(err)
	}
	// Forge an unknown partitioner kind in the header ("hash" -> "hasq")
	// and fix up the header CRC so only the kind differs.
	restored := restoredFrozenSharded(t, sidx, func(data []byte) []byte {
		i := bytes.Index(data, []byte("hash"))
		if i < 0 {
			t.Fatal("kind not found in stream")
		}
		data[i+3] = 'q'
		// Header CRC covers magic..kind; recompute it in place.
		return rewriteShardedHeaderCRC(t, data, i+4)
	})
	lv, err := restored.Live(LivePolicy{Manual: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := lv.Insert(feed[0]); !errors.Is(err, ErrImmutable) || !IsImmutable(err) {
		t.Fatalf("live Insert = %v, want ErrImmutable", err)
	}
	if ok, err := lv.Delete(base[0].ID); err != nil || !ok {
		t.Fatalf("live Delete on unknown-partitioner index = %v, %v", ok, err)
	}
}

// TestLiveSnapshotUnderWrites checkpoints a live index while a writer
// keeps churning: the stream must restore to a consistent index whose
// corpus is some prefix of the write history, and the writer is never
// blocked for the duration of the serialization.
func TestLiveSnapshotUnderWrites(t *testing.T) {
	base, feed, routes := liveWorkload(t)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	lv, err := NewLiveShardedIndex(base, LiveShardOptions{
		Shards: 2,
		Index:  IndexOptions{Ordering: ZOrdering},
		Policy: LivePolicy{MaxDelta: 128, MaxDeltaFraction: -1},
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
	lv, err := NewLiveShardedIndex(base, LiveShardOptions{
		Shards: 2,
		Index:  IndexOptions{Ordering: ZOrdering},
		Policy: LivePolicy{MaxDelta: 64, MaxDeltaFraction: -1},
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
