package trajcover

// Robustness properties of the snapshot format under both owners of the
// bytes — the io.Reader entry points, which copy what they keep out of a
// buffer nobody owns, and the mapped opens, which alias the bytes they
// are handed:
//
//   - write → read → write is byte-identical (the stream is a pure
//     function of the index state, so re-snapshotting a restored index
//     reproduces the original bytes);
//   - every truncation and every single-bit flip of a valid stream is an
//     ErrBadSnapshot — never a panic, never a silently wrong index (the
//     format checksums every byte it reads).
//
// The corruption sweeps run the full decode for every mutation, so they
// use a small corpus; the fuzz target below extends the same no-panic
// property to arbitrary adversarial bytes, and requires the two owners to
// agree on what they accept.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"github.com/trajcover/trajcover/internal/wal"
)

// snapshotCase is one small index under test, named for the stream its
// WriteSnapshot writes. Every stream has the one reader, whose parse
// under each owner is parseSnapshot.
type snapshotCase struct {
	name string
	x    *Index
}

// snapshotOwners are the two ways a parse gets its bytes.
var snapshotOwners = []string{"copy", "alias"}

// parse runs the reader over data under the given owner, naming the
// case in a panic's error.
func (c snapshotCase) parse(data []byte, owner string) (*Index, error) {
	return parseSnapshot(c.name, data, owner)
}

// parseSnapshot runs the snapshot reader over data under the given owner
// — copy reads it as a stream, alias is the mapped open's parse over an
// in-memory image and a token that owns no mapping — converting a panic
// into an error the caller will not mistake for an ErrBadSnapshot.
func parseSnapshot(name string, data []byte, owner string) (x *Index, err error) {
	defer func() {
		if r := recover(); r != nil {
			x, err = nil, fmt.Errorf("PANIC (%s, %s): %v", name, owner, r)
		}
	}()
	pol := LivePolicy{Manual: true}
	if owner == "alias" {
		return openMappedIndex(data, &mappedToken{}, pol)
	}
	return ReadLiveSnapshot(bytes.NewReader(data), pol)
}

// snapshotCases builds three small indexes over n taxi trips, each
// written as TQLIVE02: one shard and two with nothing pending, and two
// shards with a pending delta and tombstones.
func snapshotCases(t testing.TB, n int) []snapshotCase {
	t.Helper()
	users := TaxiTrips(NewYorkCity(), n, 41)
	opts := IndexOptions{Ordering: ZOrdering}
	one, err := NewIndex(users, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards = 2
	two, err := NewIndex(users, opts)
	if err != nil {
		t.Fatal(err)
	}
	return []snapshotCase{
		{"1 shard", one},
		{"2 shards", two},
		{"2 shards, churned", churnedLiveIndex(t, users)},
	}
}

// churnedLiveIndex builds a small live index whose snapshot exercises
// every TQLIVE02 section: a frozen base, pending delta, and tombstones.
func churnedLiveIndex(t testing.TB, users []*Trajectory) *Index {
	t.Helper()
	lv, err := NewIndex(users[:20], IndexOptions{
		Ordering: ZOrdering,
		Shards:   2,
		Policy:   LivePolicy{Manual: true},
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

func snapshotBytes(t testing.TB, c snapshotCase) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.x.WriteSnapshot(&buf); err != nil {
		t.Fatalf("%s: write: %v", c.name, err)
	}
	return buf.Bytes()
}

func pick(cond bool, a, b int) int {
	if cond {
		return a
	}
	return b
}

// TestSnapshotRoundTripByteIdentical: restoring a snapshot and
// re-snapshotting the restored index reproduces the original stream
// byte for byte, for every case under both owners.
func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	for _, f := range snapshotCases(t, 60) {
		first := snapshotBytes(t, f)
		for _, owner := range snapshotOwners {
			x, err := f.parse(first, owner)
			if err != nil {
				t.Fatalf("%s, %s: %v", f.name, owner, err)
			}
			var second bytes.Buffer
			if err := x.WriteSnapshot(&second); err != nil {
				t.Fatalf("%s, %s: rewrite: %v", f.name, owner, err)
			}
			if !bytes.Equal(first, second.Bytes()) {
				t.Fatalf("%s, %s: rewrite differs (%d vs %d bytes)", f.name, owner, len(first), second.Len())
			}
		}
	}
}

// TestSnapshotTruncation: every proper prefix of a valid stream is an
// ErrBadSnapshot under both owners and never panics.
func TestSnapshotTruncation(t *testing.T) {
	for _, f := range snapshotCases(t, 30) {
		data := snapshotBytes(t, f)
		// Every length would be O(n²); step through all short prefixes
		// (headers, counts) and sample the long tail densely.
		step := 1
		if len(data) > 2048 {
			step = 7
		}
		for _, owner := range snapshotOwners {
			for cut := 0; cut < len(data); cut += step {
				if _, err := f.parse(data[:cut], owner); !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("%s, %s: truncation at %d/%d bytes: err = %v, want ErrBadSnapshot", f.name, owner, cut, len(data), err)
				}
			}
		}
	}
}

// TestSnapshotBitFlip: flipping any single bit of a valid stream is an
// ErrBadSnapshot under both owners and never panics — every byte of a
// stream is covered by a checksum (or is the checksum itself, or a pad
// checked to be zero).
func TestSnapshotBitFlip(t *testing.T) {
	for _, f := range snapshotCases(t, 30) {
		data := snapshotBytes(t, f)
		// Flipping every byte of every stream is O(n²) decode work; cover
		// all of the header/count region and sample the bulk + trailer.
		step := 1
		if len(data) > 2048 {
			step = 11
		}
		for _, owner := range snapshotOwners {
			for i := 0; i < len(data); i += pick(i < 128 || i >= len(data)-8, 1, step) {
				data[i] ^= 1 << (i % 8)
				_, err := f.parse(data, owner)
				data[i] ^= 1 << (i % 8)
				if !errors.Is(err, ErrBadSnapshot) {
					t.Fatalf("%s, %s: bit flip at byte %d/%d: err = %v, want ErrBadSnapshot", f.name, owner, i, len(data), err)
				}
			}
		}
	}
}

// TestSnapshotForgedLengthBuysNoMemory: a few-KB stream whose first
// frame claims a terabyte (or 4 EiB) is an ErrBadSnapshot from the stream
// reader, which allocated for the bytes that arrived, not the bytes
// announced.
func TestSnapshotForgedLengthBuysNoMemory(t *testing.T) {
	for _, f := range snapshotCases(t, 30) {
		image := snapshotBytes(t, f)
		lo, _ := framePayload(image, 0)
		for _, claim := range []uint64{1 << 40, 1 << 62} {
			data := bytes.Clone(image)
			binary.LittleEndian.PutUint64(data[lo-8:], claim)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := f.parse(data, "copy")
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("%s: frame length %d: err = %v, want ErrBadSnapshot", f.name, claim, err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Fatalf("%s: frame length %d over a %d-byte image allocated %d bytes", f.name, claim, len(image), grew)
			}
		}
	}
}

// fuzzSnapshot is the one differential fuzz body: the bytes go to the
// reader under both owners. Neither may panic or fail with anything but
// an ErrBadSnapshot, and the two must agree on accept/reject, but for the
// one difference they have by design: only a mapped open sees (and
// rejects) bytes after the last frame. The retired magics are seeds too,
// for the reader to refuse by name.
func fuzzSnapshot(f *testing.F) {
	for _, c := range snapshotCases(f, 30) {
		data := snapshotBytes(f, c)
		f.Add(data)
		f.Add(data[:64])
		f.Add(forgeUnknownKind(f, data))
	}
	for _, magic := range []string{"TQSNAP04", "TQSHRD03", "TQLIVE02", "TQSNAP03", "TQSHRD02", "TQLIVE01", "TQSNAP02", "TQSHRD01", ""} {
		f.Add([]byte(magic))
	}
	for _, h := range hostileSnapshots(f) {
		f.Add(h.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, cerr := parseSnapshot("fuzz", data, "copy")
		_, aerr := parseSnapshot("fuzz", data, "alias")
		for _, err := range []error{cerr, aerr} {
			if err != nil && !errors.Is(err, ErrBadSnapshot) {
				t.Fatal(err)
			}
		}
		switch {
		case (cerr == nil) == (aerr == nil):
		case aerr != nil && strings.Contains(aerr.Error(), "trailing bytes after last frame"):
		default:
			t.Fatalf("the owners disagree: copy %v, alias %v", cerr, aerr)
		}
	})
}

// FuzzReadSnapshot is the fuzz target for the snapshot reader.
func FuzzReadSnapshot(f *testing.F) { fuzzSnapshot(f) }

// FuzzReadShardedSnapshot and FuzzReadLiveSnapshot are FuzzReadSnapshot
// under the names the two containers' targets had; they keep those
// targets' seed subtests running under plain go test. There is one reader
// for the one format: fuzz the one above.
func FuzzReadShardedSnapshot(f *testing.F) { fuzzSnapshot(f) }
func FuzzReadLiveSnapshot(f *testing.F)    { fuzzSnapshot(f) }

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
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("expected one segment, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// replayWALBytes plants data as the only segment of a fresh directory
// and replays it, converting panics into errors.
func replayWALBytes(t testing.TB, data []byte) (recs []wal.Record, torn bool, err error) {
	t.Helper()
	return replayWALDir(plantWALSegment(t, data))
}

// plantWALSegment writes data as the only segment of a fresh directory.
func plantWALSegment(t testing.TB, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// replayWALDir replays dir, converting panics into errors.
func replayWALDir(dir string) (recs []wal.Record, torn bool, err error) {
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
// record the codec would not re-encode. Whenever replay accepts the
// segment, wal.Open repairs it the way replay read it: after an Open
// and Close, replay returns the same records, not torn, with no error.
func FuzzReplayWALSegment(f *testing.F) {
	data := walSegmentFile(f, walTestRecords())
	f.Add(data)
	if len(data) > 64 {
		f.Add(data[:64])
	}
	f.Add([]byte("TQWAL001"))
	f.Add([]byte{})
	f.Add(data[:5]) // a torn header
	// A final delete record whose CRC holds but whose payload does not
	// decode.
	payload := []byte{byte(wal.OpDelete), 1, 0}
	undecodable := binary.LittleEndian.AppendUint32(append([]byte(nil), data...), uint32(len(payload)))
	undecodable = binary.LittleEndian.AppendUint32(undecodable, crc32.ChecksumIEEE(payload))
	f.Add(append(undecodable, payload...))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := plantWALSegment(t, data)
		recs, _, err := replayWALDir(dir)
		if err != nil {
			return
		}
		log, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
		if err != nil {
			t.Fatalf("Open of a segment replay accepts: %v", err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		again, torn, err := replayWALDir(dir)
		if err != nil || torn || len(again) != len(recs) || !walIsPrefix(again, recs) {
			t.Fatalf("after Open and Close replay gave %d records, torn=%v, err=%v; before, %d records", len(again), torn, err, len(recs))
		}
	})
}
