package trajcover

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestSnapshotRoundTrip(t *testing.T) {
	users, routes := smallWorkload(t)
	for _, opts := range []IndexOptions{
		{},
		{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 16},
		{Variant: Segmented, Ordering: BasicOrdering, Beta: 32},
	} {
		idx, err := NewIndex(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(&buf)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if back.Len() != idx.Len() {
			t.Fatalf("restored %d trajectories, want %d", back.Len(), idx.Len())
		}
		// Restored index must answer queries identically.
		sc := Binary
		if opts.Variant == Segmented || opts.Variant == FullTrajectory {
			sc = PointCount
		}
		q := Query{Scenario: sc, Psi: DefaultPsi}
		for _, f := range routes[:5] {
			a, err := idx.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(a-b) > 1e-9 {
				t.Fatalf("facility %d: original %v, restored %v", f.ID, a, b)
			}
		}
	}
}

// TestSnapshotPersistsMaxDepth checks the v2 header carries the depth
// bound, and that a legacy v1 stream (no MaxDepth field) is rejected.
func TestSnapshotPersistsMaxDepth(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users[:500], IndexOptions{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	a, err := idx.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("restored shallow index answers %v, want %v", b, a)
	}

	// TQSNAP01 (the same header without the MaxDepth field) is no longer
	// read: its magic is rejected like any unknown one.
	v1 := append([]byte("TQSNAP01"), buf.Bytes()[8:]...)
	if _, err := ReadSnapshot(bytes.NewReader(v1)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("TQSNAP01 stream: err = %v, want ErrBadSnapshot", err)
	}
}

func TestSnapshotDetectsCorruption(t *testing.T) {
	users, _ := smallWorkload(t)
	idx, err := NewIndex(users[:100], IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip a payload byte: checksum must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := ReadSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("corrupted payload: err = %v, want ErrBadSnapshot", err)
	}

	// Truncated stream.
	if _, err := ReadSnapshot(bytes.NewReader(good[:len(good)/3])); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated stream: err = %v, want ErrBadSnapshot", err)
	}

	// Wrong magic.
	bad2 := append([]byte(nil), good...)
	bad2[0] = 'X'
	if _, err := ReadSnapshot(bytes.NewReader(bad2)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("bad magic: err = %v, want ErrBadSnapshot", err)
	}

	// Empty stream.
	if _, err := ReadSnapshot(bytes.NewReader(nil)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("empty stream: err = %v, want ErrBadSnapshot", err)
	}
}

func TestSnapshotPreservesInsertedTrajectories(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users[:1500], IndexOptions{Bounds: Rect{MaxX: 30000, MaxY: 40000}})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[1500:] {
		if err := idx.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	a, err := idx.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := back.ServiceValue(routes[0], q)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a-b) > 1e-9 {
		t.Fatalf("post-insert snapshot mismatch: %v vs %v", a, b)
	}
}

func TestShardedSnapshotRoundTrip(t *testing.T) {
	users, routes := smallWorkload(t)
	for _, opts := range []ShardOptions{
		{Shards: 1},
		{Shards: 4},
		{Shards: 3, Partitioner: GridPartitioner(), Index: IndexOptions{Beta: 16, MaxDepth: 6}},
	} {
		idx, err := NewShardedIndex(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := idx.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadShardedSnapshot(&buf)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if back.Len() != idx.Len() || back.NumShards() != idx.NumShards() {
			t.Fatalf("restored %d trajectories in %d shards, want %d in %d",
				back.Len(), back.NumShards(), idx.Len(), idx.NumShards())
		}
		ws, rs := idx.ShardSizes(), back.ShardSizes()
		for i := range ws {
			if ws[i] != rs[i] {
				t.Fatalf("shard %d restored with %d trajectories, want %d", i, rs[i], ws[i])
			}
		}
		// Restored index must answer identically: Binary values are
		// integral, so exact equality is required.
		q := Query{Scenario: Binary, Psi: DefaultPsi}
		wantTop, err := idx.TopK(routes, 8, q)
		if err != nil {
			t.Fatal(err)
		}
		gotTop, err := back.TopK(routes, 8, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range wantTop {
			if gotTop[i].Facility.ID != wantTop[i].Facility.ID ||
				gotTop[i].Service != wantTop[i].Service {
				t.Fatalf("rank %d: restored (%d, %v), want (%d, %v)", i,
					gotTop[i].Facility.ID, gotTop[i].Service,
					wantTop[i].Facility.ID, wantTop[i].Service)
			}
		}
		// A restored built-in partitioner must keep accepting Inserts.
		u, err := NewTrajectory(ID(900000), []Point{Pt(100, 100), Pt(200, 200)})
		if err != nil {
			t.Fatal(err)
		}
		if err := back.Insert(u); err != nil {
			t.Fatalf("insert into restored index: %v", err)
		}
	}
}

func TestShardedSnapshotDetectsCorruption(t *testing.T) {
	users, _ := smallWorkload(t)
	idx, err := NewShardedIndex(users[:300], ShardOptions{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flip a byte in the middle (some shard frame): the frame CRC must
	// catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0xFF
	if _, err := ReadShardedSnapshot(bytes.NewReader(bad)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("corrupted frame: err = %v, want ErrBadSnapshot", err)
	}

	// Flip a header byte.
	bad2 := append([]byte(nil), good...)
	bad2[20] ^= 0xFF
	if _, err := ReadShardedSnapshot(bytes.NewReader(bad2)); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("corrupted header: err = %v, want ErrBadSnapshot", err)
	}

	// Truncated stream.
	if _, err := ReadShardedSnapshot(bytes.NewReader(good[:len(good)-9])); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("truncated stream: err = %v, want ErrBadSnapshot", err)
	}
}

func TestSnapshotFormatsAreDistinguished(t *testing.T) {
	users, _ := smallWorkload(t)
	single, err := NewIndex(users[:100], IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewShardedIndex(users[:100], ShardOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sbuf, shbuf bytes.Buffer
	if err := single.WriteSnapshot(&sbuf); err != nil {
		t.Fatal(err)
	}
	if err := sharded.WriteSnapshot(&shbuf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(shbuf.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("ReadSnapshot on sharded stream: err = %v, want ErrBadSnapshot", err)
	}
	if _, err := ReadShardedSnapshot(bytes.NewReader(sbuf.Bytes())); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("ReadShardedSnapshot on single stream: err = %v, want ErrBadSnapshot", err)
	}
}
