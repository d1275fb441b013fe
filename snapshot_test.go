package trajcover

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestSnapshotRoundTrip: a snapshot of every variant and ordering
// restores to the same corpus and the same answers.
func TestSnapshotRoundTrip(t *testing.T) {
	users, routes := smallWorkload(t)
	for _, opts := range []IndexOptions{
		{},
		{Variant: FullTrajectory, Ordering: ZOrdering, Beta: 16},
		{Variant: Segmented, Ordering: BasicOrdering, Beta: 32},
	} {
		fz, err := NewIndex(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := fz.WriteSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadLiveSnapshot(&buf, LivePolicy{})
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

// TestSnapshotPersistsMaxDepth checks the payload header carries the
// depth bound — what a rebuild of the restored index reuses.
func TestSnapshotPersistsMaxDepth(t *testing.T) {
	users, routes := smallWorkload(t)
	idx, err := NewIndex(users[:500], IndexOptions{MaxDepth: 5})
	if err != nil {
		t.Fatal(err)
	}
	back := snapshotRestore(t, idx)
	if got := back.s.Base(0).MaxDepth(); got != 5 {
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
// the build are in the snapshot, as a pending delta, and answer like the
// ones built over.
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
	back := snapshotRestore(t, idx)
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
// shard sizes, partitioner kind — and the answers survive a round trip
// through both readers, and the restored index takes writes. Every shard
// count writes TQLIVE02, which records the partitioner kind: a
// grid-built one-shard index restores as grid.
func TestShardedSnapshotRoundTrip(t *testing.T) {
	users, routes := smallWorkload(t)
	for _, opts := range []IndexOptions{
		{Shards: 1},
		{Shards: 1, Partitioner: GridPartitioner()},
		{Shards: 4},
		{Shards: 3, Partitioner: GridPartitioner(), Beta: 16, MaxDepth: 6},
	} {
		idx, err := NewIndex(users, opts)
		if err != nil {
			t.Fatal(err)
		}
		path := writeTempSnapshot(t, "index.tqlive", func(w *os.File) error { return idx.WriteSnapshot(w) })
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(data[:8]) != "TQLIVE02" {
			t.Fatalf("%+v: wrote %q, want TQLIVE02", opts, data[:8])
		}
		heap, err := ReadLiveSnapshot(bytes.NewReader(data), LivePolicy{Manual: true})
		if err != nil {
			t.Fatalf("%+v: %v", opts, err)
		}
		mapped, err := OpenMappedLiveSnapshot(path, LivePolicy{Manual: true})
		if err != nil {
			t.Fatalf("%+v: mapped: %v", opts, err)
		}
		for _, back := range []*Index{heap, mapped} {
			if got := back.s.PartitionerKind(); got != idx.s.PartitionerKind() {
				t.Fatalf("%+v: restored partitioner %q, want %q", opts, got, idx.s.PartitionerKind())
			}
			checkShardedRestore(t, idx, back, routes)
		}
	}
}

// checkShardedRestore requires back, restored from idx's snapshot,
// to hold idx's partition and answers, and to take an insert.
func checkShardedRestore(t *testing.T, idx *Index, back *Index, routes []*Facility) {
	t.Helper()
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
	u, err := NewTrajectory(ID(900000), []Point{Pt(100, 100), Pt(200, 200)})
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Insert(u); err != nil {
		t.Fatalf("insert into restored index: %v", err)
	}
}

// assertRejected requires every image to be an ErrBadSnapshot under both
// owners.
func assertRejected(t *testing.T, f snapshotCase, images map[string][]byte) {
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
	f := snapshotCases(t, 30)[0]
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

// TestShardedSnapshotDetectsCorruption: the same for the container at
// every shard count — a whole byte of some frame (the frame CRC must catch it), a whole byte
// of the header, and a stream cut inside the last frame's trailer.
func TestShardedSnapshotDetectsCorruption(t *testing.T) {
	for _, f := range snapshotCases(t, 30) {
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

// forgeUnknownKind returns a copy of a hash-partitioned stream whose
// header records the partitioner kind "hasq", which no partitioner
// writes, with the header CRC fixed so that only the kind is wrong.
func forgeUnknownKind(t testing.TB, data []byte) []byte {
	t.Helper()
	const kindAt = 20 // after the magic, the shard count and the kind length
	if string(data[kindAt:kindAt+4]) != "hash" {
		t.Fatalf("stream records kind %q, want hash", data[kindAt:kindAt+4])
	}
	d := bytes.Clone(data)
	d[kindAt+3] = 'q'
	binary.LittleEndian.PutUint32(d[kindAt+4:], crc32.ChecksumIEEE(d[:kindAt+4]))
	return d
}

// TestSnapshotUnknownPartitionerKind: a stream recording a partitioner
// kind other than hash or grid is a malformed snapshot under every
// reader, streamed and mapped, and under OpenIndex's checkpoint restore.
func TestSnapshotUnknownPartitionerKind(t *testing.T) {
	pol := LivePolicy{Manual: true}
	readers := map[string]func(path string) error{
		"ReadLiveSnapshot": func(path string) error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = ReadLiveSnapshot(f, pol)
			return err
		},
		"OpenMappedLiveSnapshot": func(path string) error {
			_, err := OpenMappedLiveSnapshot(path, pol)
			return err
		},
	}
	for _, sf := range snapshotCases(t, 30) {
		data := forgeUnknownKind(t, snapshotBytes(t, sf))
		path := filepath.Join(t.TempDir(), "forged.tqlive")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for name, read := range readers {
			if err := read(path); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), `"hasq"`) {
				t.Errorf("%s of a %s stream recording kind hasq: err = %v, want ErrBadSnapshot naming the kind", name, sf.name, err)
			}
		}
	}

	dir := t.TempDir()
	users := TaxiTrips(NewYorkCity(), 40, 41)
	lv, err := OpenIndex(WALOptions{Dir: dir}, pol, func() (*Index, error) {
		return NewIndex(users, IndexOptions{Shards: 2, Policy: pol})
	})
	if err != nil {
		t.Fatal(err)
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
	if err := os.WriteFile(ckpts[0], forgeUnknownKind(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = OpenIndex(WALOptions{Dir: dir}, pol, func() (*Index, error) {
		t.Error("bootstrap called over a WAL directory with a checkpoint")
		return nil, errors.New("bootstrap called")
	})
	if !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("OpenIndex over a checkpoint recording kind hasq: err = %v, want ErrBadSnapshot", err)
	}
}

// TestSnapshotFormatsAreDistinguished: the reader, under both owners,
// takes the one readable format at every shard count, and refuses every
// other stream with an error that names what the stream is — the retired
// rebuild, record and frozen formats included, which say they are no
// longer readable rather than "bad magic". So does OpenIndex, over a WAL
// directory whose checkpoint opens with a retired magic.
func TestSnapshotFormatsAreDistinguished(t *testing.T) {
	cases := snapshotCases(t, 30)
	body := snapshotBytes(t, cases[0])[8:]
	streams := map[string][]byte{
		"TQSNAP01": append([]byte("TQSNAP01"), body...),
		"TQSNAP0":  []byte("TQSNAP0"),
	}
	for _, retired := range []string{"TQSNAP02", "TQSHRD01", "TQSNAP03", "TQSHRD02", "TQLIVE01", "TQSNAP04", "TQSHRD03"} {
		streams[retired] = append([]byte(retired), body...)
	}
	lens := map[string]int{}
	for _, c := range cases {
		streams[c.name] = snapshotBytes(t, c)
		lens[c.name] = c.x.Len()
	}
	says := func(name string) string {
		switch name {
		case "TQSNAP02", "TQSHRD01":
			return "rebuild-format snapshot (" + name + ") is no longer readable; rebuild the index and write a new snapshot"
		case "TQSNAP03", "TQSHRD02", "TQLIVE01":
			return "record-format snapshot (" + name + ") is no longer readable; rebuild the index and write a new snapshot"
		case "TQSNAP04", "TQSHRD03":
			return "frozen-format snapshot (" + name + ") is no longer readable; restore it with an earlier build and write it again with WriteSnapshot"
		case "TQSNAP01":
			return "bad magic"
		}
		return "truncated"
	}
	for name, data := range streams {
		for _, owner := range snapshotOwners {
			x, err := parseSnapshot(name, data, owner)
			if n, readable := lens[name]; readable {
				if err != nil {
					t.Errorf("%s, %s: %v", name, owner, err)
				} else if x.Len() != n {
					t.Errorf("%s, %s: restored %d trajectories, want %d", name, owner, x.Len(), n)
				}
			} else {
				if !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), says(name)) {
					t.Errorf("%s, %s: err = %v, want ErrBadSnapshot saying %q", name, owner, err, says(name))
				}
			}
		}
	}

	// A WAL directory whose checkpoint is in a retired format: the open
	// fails saying so, without bootstrapping a corpus over the log and
	// without touching a file of the directory.
	for _, retired := range []string{"TQLIVE01", "TQSNAP04", "TQSHRD03"} {
		dir := t.TempDir()
		pol := LivePolicy{Manual: true}
		users := TaxiTrips(NewYorkCity(), 40, 41)
		lv, err := OpenIndex(WALOptions{Dir: dir}, pol, func() (*Index, error) {
			return NewIndex(users[:30], IndexOptions{Shards: 2, Policy: pol})
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
		copy(data, retired)
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
		_, err = OpenIndex(WALOptions{Dir: dir}, pol, func() (*Index, error) {
			t.Error("bootstrap called over a WAL directory with a checkpoint")
			return nil, errors.New("bootstrap called")
		})
		if want := says(retired); !errors.Is(err, ErrBadSnapshot) || !strings.Contains(err.Error(), want) {
			t.Errorf("OpenIndex over a %s checkpoint: err = %v, want ErrBadSnapshot saying %q", retired, err, want)
		}
		if after := files(); !reflect.DeepEqual(before, after) {
			t.Errorf("the failed open of a %s checkpoint changed the WAL directory: %d files before, %d after", retired, len(before), len(after))
		}
	}
}
