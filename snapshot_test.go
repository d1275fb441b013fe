package trajcover

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotRoundTrip: a frozen index of every variant and ordering
// restores to the same corpus and the same answers.
func TestSnapshotRoundTrip(t *testing.T) {
	users, routes := smallWorkload(t)
	for _, opts := range []IndexOptions{
		{},
		{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 16},
		{Variant: Segmented, Ordering: BasicOrdering, Beta: 32},
	} {
		fz, err := NewFrozenIndex(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fz.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrozenSnapshot(&buf)
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		if back.Len() != fz.Len() {
			t.Fatalf("restored %d trajectories, want %d", back.Len(), fz.Len())
		}
		sc := Binary
		if opts.Variant == Segmented || opts.Variant == FullTrajectory {
			sc = PointCount
		}
		q := Query{Scenario: sc, Psi: DefaultPsi}
		for _, f := range routes[:5] {
			a, err := fz.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			b, err := back.ServiceValue(f, q)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("facility %d: original %v, restored %v", f.ID, a, b)
			}
		}
	}
}

// freezeRoundTrip persists a mutable index the one way there is — freeze,
// write, read — and returns the restored frozen index.
func freezeRoundTrip(t *testing.T, idx *Index) *FrozenIndex {
	t.Helper()
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fz.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrozenSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSnapshotPersistsMaxDepth checks the payload header carries the
// depth bound — what a rebuild of the restored index's live form reuses.
func TestSnapshotPersistsMaxDepth(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users[:500], IndexOptions{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	back := freezeRoundTrip(t, idx)
	if got := back.s.Engine(0).Frozen().MaxDepth(); got != 5 {
		t.Fatalf("restored MaxDepth = %d, want 5", got)
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
}

// TestSnapshotPreservesInsertedTrajectories: trajectories inserted after
// the build are in the frozen snapshot like the ones built over.
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
	back := freezeRoundTrip(t, idx)
	if back.Len() != len(users) {
		t.Fatalf("restored %d trajectories, want %d", back.Len(), len(users))
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
		t.Fatalf("post-insert snapshot mismatch: %v vs %v", a, b)
	}
}

// TestShardedSnapshotRoundTrip: the recorded partition — shard count,
// shard sizes, partitioner kind — and the answers survive a frozen
// sharded round trip, and the restored index goes live and takes writes.
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
		fz, err := idx.Freeze()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fz.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadFrozenShardedSnapshot(&buf)
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
		// Binary values are integral, so exact equality is required.
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
		// A restored built-in partitioner must keep routing Inserts.
		lv, err := back.Live(LivePolicy{Manual: true})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewTrajectory(ID(900000), []Point{Pt(100, 100), Pt(200, 200)})
		if err != nil {
			t.Fatal(err)
		}
		if err := lv.Insert(u); err != nil {
			t.Fatalf("insert into restored index: %v", err)
		}
	}
}

// assertRejected requires every image to be an ErrBadSnapshot under both
// owners.
func assertRejected(t *testing.T, f snapshotFormat, images map[string][]byte) {
	t.Helper()
	for what, data := range images {
		for _, owner := range snapshotOwners {
			if _, err := f.parse(data, owner); !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("%s, %s, %s: err = %v, want ErrBadSnapshot", f.name, owner, what, err)
			}
		}
	}
}

// TestSnapshotDetectsCorruption: damage coarser than the single-bit
// sweeps make — a whole payload byte, two thirds of the stream gone, a
// foreign magic, nothing at all.
func TestSnapshotDetectsCorruption(t *testing.T) {
	f := snapshotFormats(t, 30)[0]
	good := snapshotBytes(t, f)
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0xFF
	badMagic := bytes.Clone(good)
	badMagic[0] = 'X'
	assertRejected(t, f, map[string][]byte{
		"corrupted payload": flipped,
		"truncated stream":  good[:len(good)/3],
		"bad magic":         badMagic,
		"empty stream":      nil,
	})
}

// TestShardedSnapshotDetectsCorruption: the same for the two containers —
// a whole byte of some frame (the frame CRC must catch it), a whole byte
// of the header, and a stream cut inside the last frame's trailer.
func TestShardedSnapshotDetectsCorruption(t *testing.T) {
	for _, f := range snapshotFormats(t, 30)[1:] {
		good := snapshotBytes(t, f)
		frame := bytes.Clone(good)
		frame[len(frame)/2] ^= 0xFF
		header := bytes.Clone(good)
		header[20] ^= 0xFF
		assertRejected(t, f, map[string][]byte{
			"corrupted frame":  frame,
			"corrupted header": header,
			"truncated stream": good[:len(good)-9],
		})
	}
}

// TestSnapshotFormatsAreDistinguished: every reader, under both owners,
// refuses every other format's stream with an error that names what the
// stream is — the retired rebuild and record formats included, which say
// they are no longer readable rather than "bad magic".
func TestSnapshotFormatsAreDistinguished(t *testing.T) {
	formats := snapshotFormats(t, 30)
	body := snapshotBytes(t, formats[0])[8:]
	streams := map[string][]byte{
		"TQSNAP01": append([]byte("TQSNAP01"), body...),
		"TQSNAP0":  []byte("TQSNAP0"),
	}
	for _, retired := range []string{"TQSNAP02", "TQSHRD01", "TQSNAP03", "TQSHRD02", "TQLIVE01"} {
		streams[retired] = append([]byte(retired), body...)
	}
	for _, g := range formats {
		streams[g.name] = snapshotBytes(t, g)
	}
	says := func(name string) string {
		switch name {
		case "TQSNAP02", "TQSHRD01":
			return "rebuild-format snapshot (" + name + ") is no longer readable; rebuild the index and write a frozen snapshot"
		case "TQSNAP03", "TQSHRD02", "TQLIVE01":
			return "record-format snapshot (" + name + ") is no longer readable; rebuild the index and write a new snapshot"
		case "TQSNAP01":
			return "bad magic"
		case "TQSNAP0":
			return "truncated"
		}
		return "(" + name + "); use "
	}
	for _, f := range formats {
		for name, data := range streams {
			if name == f.name {
				continue
			}
			for _, owner := range snapshotOwners {
				_, err := f.parse(data, owner)
				if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), says(name)) {
					t.Errorf("%s reader, %s, on a %s stream: err = %v, want ErrBadSnapshot saying %q", f.name, owner, name, err, says(name))
				}
			}
		}
	}

	// A WAL directory whose checkpoint is in a retired live format: the
	// open fails saying so, without bootstrapping a corpus over the log
	// and without touching a file of the directory.
	dir := t.TempDir()
	pol := LivePolicy{Manual: true}
	users := TaxiTrips(NewYorkCity(), 40, 41)
	lv, err := OpenLiveShardedIndex(WALOptions{Dir: dir}, pol, func() (*LiveShardedIndex, error) {
		return NewLiveShardedIndex(users[:30], LiveShardOptions{Shards: 2, Policy: pol})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[30:] {
		if err := lv.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := lv.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.tqlive"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints %v, %v; want one", ckpts, err)
	}
	data, err := os.ReadFile(ckpts[0])
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "TQLIVE01")
	if err := os.WriteFile(ckpts[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	files := func() map[string]string {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = string(b)
		}
		return out
	}
	before := files()
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg")); len(segs) == 0 {
		t.Fatalf("no WAL segment beside the checkpoint: %d files", len(before))
	}
	_, err = OpenLiveShardedIndex(WALOptions{Dir: dir}, pol, func() (*LiveShardedIndex, error) {
		t.Error("bootstrap called over a WAL directory with a checkpoint")
		return nil, errors.New("bootstrap called")
	})
	if want := says("TQLIVE01"); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
		t.Errorf("OpenLiveShardedIndex over a TQLIVE01 checkpoint: err = %v, want ErrBadSnapshot saying %q", err, want)
	}
	if after := files(); !reflect.DeepEqual(before, after) {
		t.Errorf("the failed open changed the WAL directory: %d files before, %d after", len(before), len(after))
	}
}
