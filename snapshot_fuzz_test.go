package trajcover

// Robustness properties of every snapshot format, rebuild and frozen:
//
//   - write → read → write is byte-identical (the stream is a pure
//     function of the index state, so re-snapshotting a restored index
//     reproduces the original bytes);
//   - every truncation and every single-bit flip of a valid stream is
//     rejected with an error — never a panic, never a silently wrong
//     index (all four formats checksum every byte they read).
//
// The corruption sweeps run the full decode for every mutation, so they
// use a small corpus; the fuzz targets below extend the same no-panic
// property to arbitrary adversarial bytes.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trajcover/trajcover/internal/wal"
)

// snapshotFormat is one (writer, reader) pair under test.
type snapshotFormat struct {
	name  string
	write func(w io.Writer) error
	read  func(r io.Reader) error
}

// snapshotFormats builds one small index per layout and returns all five
// formats wired to it.
func snapshotFormats(t testing.TB) []snapshotFormat {
	t.Helper()
	ny := NewYorkCity()
	users := TaxiTrips(ny, 30, 41)
	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sidx, err := NewShardedIndex(users, ShardOptions{Shards: 2, Index: IndexOptions{Ordering: ZOrdering}})
	if err != nil {
		t.Fatal(err)
	}
	sfz, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	lv := churnedLiveIndex(t, users)
	return []snapshotFormat{
		{"TQSNAP02", idx.WriteSnapshot, func(r io.Reader) error { _, err := ReadSnapshot(r); return err }},
		{"TQSNAP03", fz.WriteSnapshot, func(r io.Reader) error { _, err := ReadFrozenSnapshot(r); return err }},
		{"TQSHRD01", sidx.WriteSnapshot, func(r io.Reader) error { _, err := ReadShardedSnapshot(r); return err }},
		{"TQSHRD02", sfz.WriteSnapshot, func(r io.Reader) error { _, err := ReadFrozenShardedSnapshot(r); return err }},
		{"TQLIVE01", lv.WriteSnapshot, func(r io.Reader) error { _, err := ReadLiveSnapshot(r, LivePolicy{}); return err }},
	}
}

// churnedLiveIndex builds a small live index whose snapshot exercises
// every TQLIVE01 section: a frozen base, pending delta, and tombstones.
func churnedLiveIndex(t testing.TB, users []*Trajectory) *LiveShardedIndex {
	t.Helper()
	lv, err := NewLiveShardedIndex(users[:20], LiveShardOptions{
		Shards: 2, Index: IndexOptions{Ordering: ZOrdering}, Policy: LivePolicy{Manual: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[20:] {
		if err := lv.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range users[:6] {
		if ok, err := lv.Delete(u.ID); err != nil || !ok {
			t.Fatalf("Delete(%d) = %v, %v", u.ID, ok, err)
		}
	}
	return lv
}

func snapshotBytes(t testing.TB, f snapshotFormat) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.write(&buf); err != nil {
		t.Fatalf("%s: write: %v", f.name, err)
	}
	return buf.Bytes()
}

func pick(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

// readNoPanic runs the reader and converts any panic into an error the
// test can assert on — the property under test is that corrupt streams
// never panic.
func readNoPanic(f snapshotFormat, data []byte) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	return f.read(bytes.NewReader(data))
}

// TestSnapshotRoundTripByteIdentical: restoring a snapshot and
// re-snapshotting the restored index reproduces the original stream
// byte for byte, for all four formats.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	ny := NewYorkCity()
	users := TaxiTrips(ny, 60, 41)

	idx, err := NewIndex(users, IndexOptions{Ordering: ZOrdering})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := idx.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	sidx, err := NewShardedIndex(users, ShardOptions{Shards: 2, Index: IndexOptions{Ordering: ZOrdering}})
	if err != nil {
		t.Fatal(err)
	}
	sfz, err := sidx.Freeze()
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, first []byte, rewrite func() ([]byte, error)) {
		t.Helper()
		second, err := rewrite()
		if err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("%s: rewrite differs (%d vs %d bytes)", name, len(first), len(second))
		}
	}

	var b1 bytes.Buffer
	if err := idx.WriteSnapshot(&b1); err != nil {
		t.Fatal(err)
	}
	check("TQSNAP02", b1.Bytes(), func() ([]byte, error) {
		r, err := ReadSnapshot(bytes.NewReader(b1.Bytes()))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		err = r.WriteSnapshot(&out)
		return out.Bytes(), err
	})

	var b2 bytes.Buffer
	if err := fz.WriteSnapshot(&b2); err != nil {
		t.Fatal(err)
	}
	check("TQSNAP03", b2.Bytes(), func() ([]byte, error) {
		r, err := ReadFrozenSnapshot(bytes.NewReader(b2.Bytes()))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		err = r.WriteSnapshot(&out)
		return out.Bytes(), err
	})

	var b3 bytes.Buffer
	if err := sidx.WriteSnapshot(&b3); err != nil {
		t.Fatal(err)
	}
	check("TQSHRD01", b3.Bytes(), func() ([]byte, error) {
		r, err := ReadShardedSnapshot(bytes.NewReader(b3.Bytes()))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		err = r.WriteSnapshot(&out)
		return out.Bytes(), err
	})

	var b4 bytes.Buffer
	if err := sfz.WriteSnapshot(&b4); err != nil {
		t.Fatal(err)
	}
	check("TQSHRD02", b4.Bytes(), func() ([]byte, error) {
		r, err := ReadFrozenShardedSnapshot(bytes.NewReader(b4.Bytes()))
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		err = r.WriteSnapshot(&out)
		return out.Bytes(), err
	})

	lv := churnedLiveIndex(t, users)
	var b5 bytes.Buffer
	if err := lv.WriteSnapshot(&b5); err != nil {
		t.Fatal(err)
	}
	check("TQLIVE01", b5.Bytes(), func() ([]byte, error) {
		r, err := ReadLiveSnapshot(bytes.NewReader(b5.Bytes()), LivePolicy{Manual: true})
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		err = r.WriteSnapshot(&out)
		return out.Bytes(), err
	})

	// The frozen restore must answer like the original frozen index.
	routes := BusRoutes(ny, 8, 6, 2)
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	want, err := fz.TopK(routes, 4, q)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := ReadFrozenSnapshot(bytes.NewReader(b2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.TopK(routes, 4, q)
	if err != nil {
		t.Fatal(err)
	}
	compareRanked(t, q.Scenario, want, got)
}

// TestSnapshotTruncation: every proper prefix of a valid stream is
// rejected with an error and never panics.
func TestSnapshotTruncation(t *testing.T) {
	for _, f := range snapshotFormats(t) {
		data := snapshotBytes(t, f)
		// Every length would be O(n²); step through all short prefixes
		// (headers, counts) and sample the long tail densely.
		step := 1
		if len(data) > 2048 {
			step = 7
		}
		for cut := 0; cut < len(data); cut += step {
			if err := readNoPanic(f, data[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d bytes accepted", f.name, cut, len(data))
			}
		}
	}
}

// TestSnapshotBitFlip: flipping any single bit of a valid stream is
// rejected with an error and never panics — every byte of every format
// is covered by a checksum (or is the checksum itself).
func TestSnapshotBitFlip(t *testing.T) {
	for _, f := range snapshotFormats(t) {
		data := snapshotBytes(t, f)
		// Flipping every byte of every stream is O(n²) decode work; cover
		// all of the header/count region and sample the bulk + trailer.
		step := 1
		if len(data) > 2048 {
			step = 11
		}
		for i := 0; i < len(data); i += pick(i < 128 || i >= len(data)-8, 1, step) {
			data[i] ^= 1 << (i % 8)
			err := readNoPanic(f, data)
			data[i] ^= 1 << (i % 8)
			if err == nil {
				t.Fatalf("%s: bit flip at byte %d/%d accepted", f.name, i, len(data))
			}
		}
	}
}

// addHostileSeeds seeds a fuzz target with the forged trajectory sections
// of TestSnapshotHostileTrajectorySection in the given format: inputs
// that pass every checksum and reach the table and column validation.
func addHostileSeeds(f *testing.F, format string) {
	for _, h := range hostileSnapshots(f) {
		if h.format == format {
			f.Add(h.data)
		}
	}
}

// FuzzReadSnapshot feeds arbitrary bytes to both single-index readers;
// neither may panic.
func FuzzReadSnapshot(f *testing.F) {
	formats := snapshotFormats(f)
	for _, sf := range formats {
		data := snapshotBytes(f, sf)
		f.Add(data)
		if len(data) > 64 {
			f.Add(data[:64])
		}
	}
	f.Add([]byte("TQSNAP03"))
	f.Add([]byte{})
	addHostileSeeds(f, "TQSNAP03")
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadSnapshot(bytes.NewReader(data))
		_, _ = ReadFrozenSnapshot(bytes.NewReader(data))
	})
}

// FuzzReadShardedSnapshot feeds arbitrary bytes to both sharded readers;
// neither may panic.
func FuzzReadShardedSnapshot(f *testing.F) {
	formats := snapshotFormats(f)
	for _, sf := range formats {
		f.Add(snapshotBytes(f, sf))
	}
	f.Add([]byte("TQSHRD02"))
	addHostileSeeds(f, "TQSHRD02")
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadShardedSnapshot(bytes.NewReader(data))
		_, _ = ReadFrozenShardedSnapshot(bytes.NewReader(data))
	})
}

// FuzzReadLiveSnapshot feeds arbitrary bytes to the live reader; it may
// never panic.
func FuzzReadLiveSnapshot(f *testing.F) {
	for _, sf := range snapshotFormats(f) {
		f.Add(snapshotBytes(f, sf))
	}
	f.Add([]byte("TQLIVE01"))
	addHostileSeeds(f, "TQLIVE01")
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = ReadLiveSnapshot(bytes.NewReader(data), LivePolicy{})
	})
}

// --- WAL segment format -------------------------------------------------
//
// The same robustness contract extends to the durability log, with one
// deliberate relaxation: a WAL segment's FINAL record may be torn by a
// crash mid-append, so a mutation confined to the tail may be *tolerated*
// (replay drops the torn record and reports torn=true) instead of
// rejected. Everything else holds: byte-identical round-trip, no panics,
// and a tolerated replay only ever yields a strict prefix of the
// original records — never a reordered, altered, or invented one.

// walTestRecords is a small deterministic history of inserts and
// deletes covering both record codecs.
func walTestRecords() []wal.Record {
	users := TaxiTrips(NewYorkCity(), 24, 43)
	recs := make([]wal.Record, 0, len(users)+6)
	for _, u := range users {
		recs = append(recs, wal.Record{Op: wal.OpInsert, Trajectory: u, ID: u.ID})
	}
	for _, u := range users[:6] {
		recs = append(recs, wal.Record{Op: wal.OpDelete, ID: u.ID})
	}
	return recs
}

// walSegmentFile appends recs into a fresh one-segment log and returns
// the segment's bytes (Close flushes).
func walSegmentFile(t testing.TB, recs []wal.Record) []byte {
	t.Helper()
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := log.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := wal.ListSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %v", segs)
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", segs[0])))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replayWALBytes plants data as the only segment of a fresh directory
// and replays it, converting panics into errors.
func replayWALBytes(t testing.TB, data []byte) (recs []wal.Record, torn bool, err error) {
	t.Helper()
	dir := t.TempDir()
	if werr := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); werr != nil {
		t.Fatal(werr)
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("PANIC: %v", r)
		}
	}()
	_, torn, err = wal.Replay(dir, func(rec wal.Record) error {
		recs = append(recs, rec)
		return nil
	})
	return recs, torn, err
}

// walRecordsEqual compares two records structurally (points included).
func walRecordsEqual(a, b wal.Record) bool {
	if a.Op != b.Op || a.ID != b.ID {
		return false
	}
	if (a.Trajectory == nil) != (b.Trajectory == nil) {
		return false
	}
	if a.Trajectory == nil {
		return true
	}
	ap, bp := a.Trajectory.Points, b.Trajectory.Points
	if a.Trajectory.ID != b.Trajectory.ID || len(ap) != len(bp) {
		return false
	}
	for i := range ap {
		if ap[i] != bp[i] {
			return false
		}
	}
	return true
}

// walIsPrefix reports whether got is a strict-or-full prefix of want.
func walIsPrefix(got, want []wal.Record) bool {
	if len(got) > len(want) {
		return false
	}
	for i := range got {
		if !walRecordsEqual(got[i], want[i]) {
			return false
		}
	}
	return true
}

// TestWALSegmentRoundTripByteIdentical: replaying a segment and
// re-appending the replayed records into a fresh log reproduces the
// original segment byte for byte — the encoding is a pure function of
// the record sequence.
func TestWALSegmentRoundTripByteIdentical(t *testing.T) {
	recs := walTestRecords()
	first := walSegmentFile(t, recs)
	replayed, torn, err := replayWALBytes(t, first)
	if err != nil || torn {
		t.Fatalf("replay of pristine segment: torn=%v err=%v", torn, err)
	}
	if !walIsPrefix(replayed, recs) || len(replayed) != len(recs) {
		t.Fatalf("replay returned %d records, want the original %d", len(replayed), len(recs))
	}
	second := walSegmentFile(t, replayed)
	if !bytes.Equal(first, second) {
		t.Fatalf("segment rewrite differs (%d vs %d bytes)", len(first), len(second))
	}
}

// TestWALSegmentTruncation: every truncation of a segment either fails
// replay with an error (header or mid-log damage) or is tolerated as a
// torn tail replaying a strict prefix. Never a panic, never a non-prefix.
func TestWALSegmentTruncation(t *testing.T) {
	recs := walTestRecords()
	data := walSegmentFile(t, recs)
	step := 1
	if len(data) > 2048 {
		step = 7
	}
	for cut := 0; cut < len(data); cut += step {
		got, torn, err := replayWALBytes(t, data[:cut])
		if err != nil {
			if strings.HasPrefix(err.Error(), "PANIC") {
				t.Fatalf("truncation at %d/%d bytes: %v", cut, len(data), err)
			}
			continue
		}
		if !walIsPrefix(got, recs) {
			t.Fatalf("truncation at %d/%d bytes replayed a non-prefix (%d records)", cut, len(data), len(got))
		}
		// torn=false with a short prefix is legal only when the cut lands
		// exactly on a record boundary — then the file is bytewise
		// indistinguishable from a crash right after a complete append.
		// internal/wal's TestTornTailTruncationTolerated pins that
		// distinction with boundary bookkeeping; here we only require the
		// prefix property and no panic.
		_ = torn
	}
}

// TestWALSegmentBitFlip: every single-bit flip either fails replay or —
// when the damage is confined to the final record, indistinguishable
// from a torn append — replays a strict prefix with torn reported. A
// full-length clean replay of flipped bytes is a checksum hole.
func TestWALSegmentBitFlip(t *testing.T) {
	recs := walTestRecords()
	data := walSegmentFile(t, recs)
	step := 1
	if len(data) > 2048 {
		step = 11
	}
	for i := 0; i < len(data); i += pick(i < 128 || i >= len(data)-8, 1, step) {
		data[i] ^= 1 << (i % 8)
		got, torn, err := replayWALBytes(t, data)
		data[i] ^= 1 << (i % 8)
		if err != nil {
			if strings.HasPrefix(err.Error(), "PANIC") {
				t.Fatalf("bit flip at byte %d/%d: %v", i, len(data), err)
			}
			continue
		}
		if !walIsPrefix(got, recs) {
			t.Fatalf("bit flip at byte %d/%d replayed a non-prefix (%d records)", i, len(data), len(got))
		}
		if len(got) == len(recs) {
			t.Fatalf("bit flip at byte %d/%d accepted as a clean full replay", i, len(data))
		}
		if !torn {
			t.Fatalf("bit flip at byte %d/%d dropped records without reporting torn", i, len(data))
		}
	}
}

// FuzzReplayWALSegment feeds arbitrary bytes as a segment file; replay
// may reject or tolerate them but never panics and never yields a
// record the codec would not re-encode.
func FuzzReplayWALSegment(f *testing.F) {
	data := walSegmentFile(f, walTestRecords())
	f.Add(data)
	if len(data) > 64 {
		f.Add(data[:64])
	}
	f.Add([]byte("TQWAL001"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, _ = replayWALBytes(t, data)
	})
}
