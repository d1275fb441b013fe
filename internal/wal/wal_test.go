package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/faultfs"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// testTraj builds a deterministic trajectory for record id.
func testTraj(id uint32, npts int) *trajectory.Trajectory {
	pts := make([]geo.Point, npts)
	for i := range pts {
		pts[i] = geo.Point{X: float64(id)*10 + float64(i), Y: float64(id) - float64(i)*0.5}
	}
	return trajectory.MustNew(trajectory.ID(id), pts)
}

// testHistory is a small mixed insert/delete history.
func testHistory(n int) []Record {
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		if i%5 == 4 {
			recs = append(recs, Record{Op: OpDelete, ID: trajectory.ID(i - 2)})
		} else {
			recs = append(recs, Record{Op: OpInsert, Trajectory: testTraj(uint32(i), 2+i%7)})
		}
	}
	return recs
}

// appendAll opens a log in dir, appends recs, waits for durability, and
// closes it.
func appendAll(t *testing.T, dir string, opts Options, recs []Record) {
	t.Helper()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// collect replays dir into a slice.
func collect(t *testing.T, dir string) ([]Record, bool) {
	t.Helper()
	var got []Record
	n, torn, err := Replay(dir, func(r Record) error {
		got = append(got, r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(got) {
		t.Fatalf("replay count %d != %d records", n, len(got))
	}
	return got, torn
}

// assertRecordsEqual compares logical records.
func assertRecordsEqual(t *testing.T, want, got []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if w.Op != g.Op {
			t.Fatalf("record %d: op %d != %d", i, g.Op, w.Op)
		}
		switch w.Op {
		case OpDelete:
			if g.ID != w.ID {
				t.Fatalf("record %d: id %d != %d", i, g.ID, w.ID)
			}
		case OpInsert:
			if g.Trajectory.ID != w.Trajectory.ID || g.Trajectory.Len() != w.Trajectory.Len() {
				t.Fatalf("record %d: trajectory mismatch", i)
			}
			for j, p := range w.Trajectory.Points {
				if g.Trajectory.Points[j] != p {
					t.Fatalf("record %d point %d: %v != %v", i, j, g.Trajectory.Points[j], p)
				}
			}
		}
	}
}

// TestAppendReplayRoundTrip: every record written comes back verbatim,
// in order, across every sync policy.
func TestAppendReplayRoundTrip(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			recs := testHistory(40)
			appendAll(t, dir, Options{Sync: pol, SyncEvery: time.Millisecond}, recs)
			got, torn := collect(t, dir)
			if torn {
				t.Fatal("clean log reported torn tail")
			}
			assertRecordsEqual(t, recs, got)
		})
	}
}

// TestSegmentRotation: a tiny segment budget rotates files; replay
// stitches them back together in order, and stats see every segment.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	recs := testHistory(60)
	appendAll(t, dir, Options{SegmentBytes: 512}, recs)
	segs := listSegments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected >= 3 segments at 512-byte budget, got %d", len(segs))
	}
	got, torn := collect(t, dir)
	if torn {
		t.Fatal("unexpected torn tail")
	}
	assertRecordsEqual(t, recs, got)
}

// TestReopenAppendsNewSegment: reopening appends to a fresh segment and
// replay sees old + new records in order.
func TestReopenAppendsNewSegment(t *testing.T) {
	dir := t.TempDir()
	recs := testHistory(20)
	appendAll(t, dir, Options{}, recs[:10])
	appendAll(t, dir, Options{}, recs[10:])
	got, torn := collect(t, dir)
	if torn {
		t.Fatal("unexpected torn tail")
	}
	assertRecordsEqual(t, recs, got)
}

// listSegments returns the segment indexes in dir, ascending.
func listSegments(t *testing.T, dir string) []uint64 {
	t.Helper()
	ls, err := listDir(faultfs.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	return ls.segs
}

// lastSegmentPath returns the path of the final live segment.
func lastSegmentPath(t *testing.T, dir string) string {
	t.Helper()
	segs := listSegments(t, dir)
	if len(segs) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, segmentFile.name(segs[len(segs)-1]))
}

// TestTornTailTruncationTolerated: every truncation of the final
// segment replays as a clean prefix of the history (dropping the torn
// record), never an error, never a panic.
func TestTornTailTruncationTolerated(t *testing.T) {
	dir := t.TempDir()
	recs := testHistory(12)
	appendAll(t, dir, Options{}, recs)
	path := lastSegmentPath(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(orig) - 1; cut >= 0; cut-- {
		if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var n int
		_, torn, err := Replay(dir, func(Record) error { n++; return nil })
		if err != nil {
			t.Fatalf("cut %d: replay error %v (truncated tails must be tolerated)", cut, err)
		}
		if cut < len(orig) && !torn && n != len(recs) {
			// Cuts on exact record boundaries legitimately read as clean
			// shorter logs; anything else must be flagged torn.
			if !isRecordBoundary(orig, cut) {
				t.Fatalf("cut %d: %d records, not flagged torn", cut, n)
			}
		}
		if n > len(recs) {
			t.Fatalf("cut %d: replayed %d > %d records", cut, n, len(recs))
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// isRecordBoundary reports whether offset cut in a segment file falls
// exactly between records (or at the header end).
func isRecordBoundary(data []byte, cut int) bool {
	off := 16
	if cut == off || cut == 0 {
		return true
	}
	for off < len(data) {
		if off+8 > len(data) {
			return false
		}
		payloadLen := int(uint32(data[off]) | uint32(data[off+1])<<8 | uint32(data[off+2])<<16 | uint32(data[off+3])<<24)
		off += 8 + payloadLen
		if cut == off {
			return true
		}
	}
	return false
}

// TestMidLogCorruptionHardError: flipping a bit anywhere before the
// final record makes replay fail with ErrCorrupt — corrupt history is
// never silently skipped — while a flip inside the final record is
// either a tolerated torn tail (payload/CRC damage at EOF is
// indistinguishable from a crash mid-write, so the record is dropped)
// or, when the flip rewrites the frame length and shifts framing,
// ErrCorrupt. Never a clean full replay, never a panic.
func TestMidLogCorruptionHardError(t *testing.T) {
	dir := t.TempDir()
	recs := testHistory(12)
	appendAll(t, dir, Options{}, recs)
	path := lastSegmentPath(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Find where the final record begins.
	lastRecStart := 16
	for off := 16; off < len(orig); {
		payloadLen := int(uint32(orig[off]) | uint32(orig[off+1])<<8 | uint32(orig[off+2])<<16 | uint32(orig[off+3])<<24)
		next := off + 8 + payloadLen
		if next >= len(orig) {
			lastRecStart = off
			break
		}
		off = next
	}
	for i := 0; i < len(orig); i++ {
		mut := append([]byte(nil), orig...)
		mut[i] ^= 0x40
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		_, torn, rerr := Replay(dir, func(Record) error { n++; return nil })
		if i < lastRecStart {
			if rerr == nil && n == len(recs) && !torn {
				t.Fatalf("flip at %d (before final record at %d) replayed cleanly", i, lastRecStart)
			}
			if rerr != nil && !errors.Is(rerr, ErrCorrupt) {
				t.Fatalf("flip at %d: error %v is not ErrCorrupt", i, rerr)
			}
		} else {
			// Inside the final record: torn-tail drop or ErrCorrupt,
			// but never a clean replay of the full (now wrong) history.
			if rerr != nil && !errors.Is(rerr, ErrCorrupt) {
				t.Fatalf("flip at %d (final record): error %v is not ErrCorrupt", i, rerr)
			}
			if rerr == nil && n == len(recs) && !torn {
				t.Fatalf("flip at %d (final record) replayed cleanly", i)
			}
		}
	}
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestOpenTruncatesTornTail: Open removes a torn tail so the next
// append lands on a clean boundary and replay after more appends is the
// clean prefix + the new records.
func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := testHistory(10)
	appendAll(t, dir, Options{}, recs[:8])
	path := lastSegmentPath(t, dir)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-way into the final record.
	if err := os.WriteFile(path, orig[:len(orig)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	appendAll(t, dir, Options{}, recs[8:])
	got, torn := collect(t, dir)
	if torn {
		t.Fatal("tail should be clean after Open truncation")
	}
	want := append(append([]Record(nil), recs[:7]...), recs[8:]...)
	assertRecordsEqual(t, want, got)
}

// TestRotateRemoveBefore: the checkpoint protocol — Rotate returns a
// cut, RemoveBefore(cut) drops everything older, and replay sees only
// post-cut records.
func TestRotateRemoveBefore(t *testing.T) {
	dir := t.TempDir()
	recs := testHistory(20)
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:12] {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[12:] {
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitDurable(uint64(len(recs))); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveBefore(cut); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, torn := collect(t, dir)
	if torn {
		t.Fatal("unexpected torn tail")
	}
	assertRecordsEqual(t, recs[12:], got)
	segs := listSegments(t, dir)
	if segs[0] != cut {
		t.Fatalf("oldest segment %d, want cut %d", segs[0], cut)
	}
}

// TestGroupCommit: concurrent waiters are all released and every record
// survives replay — the group-commit path under real contention.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var mu sync.Mutex // stand-in for the live index's writer lock
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mu.Lock()
			lsn, err := l.Append(Record{Op: OpInsert, Trajectory: testTraj(uint32(i), 3)})
			mu.Unlock()
			if err != nil {
				errs <- err
				return
			}
			errs <- l.WaitDurable(lsn)
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Records != n {
		t.Fatalf("Records = %d, want %d", st.Records, n)
	}
	if st.Fsyncs == 0 || st.Fsyncs > n {
		t.Fatalf("Fsyncs = %d, want in [1, %d]", st.Fsyncs, n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
}

// TestStats: counters reflect appends, segments, and fsync activity.
func TestStats(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	recs := testHistory(30)
	for _, rec := range recs {
		lsn, err := l.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	st := l.Stats()
	if st.Records != uint64(len(recs)) {
		t.Fatalf("Records = %d, want %d", st.Records, len(recs))
	}
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2", st.Segments)
	}
	if st.Bytes <= 0 || st.Fsyncs == 0 || st.MaxFsyncNanos <= 0 {
		t.Fatalf("implausible stats %+v", st)
	}
	if st.FirstSegment != 1 || st.LastSegment < 2 {
		t.Fatalf("segment range [%d, %d]", st.FirstSegment, st.LastSegment)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClosedLogRejectsAppends: Append and Rotate after Close fail with
// ErrClosed; Close is idempotent.
func TestClosedLogRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(Record{Op: OpDelete, ID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if _, err := l.Rotate(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Rotate after Close = %v, want ErrClosed", err)
	}
}

// TestSegmentGapHardError: a missing middle segment is corruption, not
// a shorter log.
func TestSegmentGapHardError(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, Options{SegmentBytes: 256}, testHistory(30))
	segs := listSegments(t, dir)
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	if err := os.Remove(filepath.Join(dir, segmentFile.name(segs[1]))); err != nil {
		t.Fatal(err)
	}
	_, _, rerr := Replay(dir, func(Record) error { return nil })
	if !errors.Is(rerr, ErrCorrupt) {
		t.Fatalf("replay with segment gap = %v, want ErrCorrupt", rerr)
	}
}

// TestRecordCodecRejectsGarbage: decodeRecord errors (never panics) on
// malformed payloads.
func TestRecordCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{9},                                      // unknown op
		{byte(OpInsert)},                         // no body
		{byte(OpInsert), 1, 0, 0, 0, 1, 0, 0, 0}, // npts=1 < 2
		{byte(OpDelete), 1, 0, 0},                // short delete
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, payload := range cases {
		if _, err := decodeRecord(payload); err == nil {
			t.Fatalf("case %d: garbage payload decoded", i)
		}
	}
	// Length/count mismatch.
	good, err := encodeRecord(nil, Record{Op: OpInsert, Trajectory: testTraj(7, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeRecord(good[:len(good)-8]); err == nil {
		t.Fatal("short insert payload decoded")
	}
}

// TestNonFiniteRecordFailsReplay: an insert record holding a non-finite
// point — a log written before the library refused such geometry — fails
// replay with ErrCorrupt naming ErrNotFinite's cause, not a trajectory
// that would corrupt the index it is replayed into.
func TestNonFiniteRecordFailsReplay(t *testing.T) {
	bad := &trajectory.Trajectory{ID: 3, Points: []geo.Point{{X: 1, Y: 1}, {X: math.Inf(1), Y: 2}}}
	dir := t.TempDir()
	appendAll(t, dir, Options{}, []Record{
		{Op: OpInsert, Trajectory: testTraj(1, 2)},
		{Op: OpInsert, Trajectory: bad},
		{Op: OpInsert, Trajectory: testTraj(2, 3)},
	})
	n, _, err := Replay(dir, func(Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), trajectory.ErrNotFinite.Error()) {
		t.Fatalf("replay error = %v, want ErrCorrupt naming %q", err, trajectory.ErrNotFinite)
	}
	if n != 1 {
		t.Fatalf("replay applied %d records before the bad one, want 1", n)
	}
}

// TestParseSyncPolicy round-trips the flag spellings.
func TestParseSyncPolicy(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		got, err := ParseSyncPolicy(pol.String())
		if err != nil || got != pol {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", pol.String(), got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// TestSyncIntervalEventuallyDurable: under SyncInterval the background
// ticker makes appended records durable without WaitDurable blocking.
func TestSyncIntervalEventuallyDurable(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncInterval, SyncEvery: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(Record{Op: OpInsert, Trajectory: testTraj(1, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Stats().Fsyncs == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background sync never fired")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := collect(t, dir)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want 1", len(got))
	}
}

// TestReplayApplyErrorPropagates: an apply callback error aborts replay
// verbatim (it is the caller's error, not corruption).
func TestReplayApplyErrorPropagates(t *testing.T) {
	dir := t.TempDir()
	appendAll(t, dir, Options{}, testHistory(5))
	boom := fmt.Errorf("apply rejected")
	_, _, err := Replay(dir, func(Record) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("replay error = %v, want %v", err, boom)
	}
}

// TestReopenAgreesWithReplay: Open repairs a log the way replay reads
// it. For each damaged tail that replay tolerates, replay returns the
// same records with no error before and after an Open and Close.
func TestReopenAgreesWithReplay(t *testing.T) {
	recs := testHistory(8)
	for _, tc := range []struct {
		name string
		tear func(t *testing.T, dir string)
	}{
		{"torn header on the next segment", func(t *testing.T, dir string) {
			segs := listSegments(t, dir)
			next := segs[len(segs)-1] + 1
			if err := os.WriteFile(filepath.Join(dir, segmentFile.name(next)), Magic[:5], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"final record with a valid CRC that does not decode", func(t *testing.T, dir string) {
			payload := []byte{byte(OpDelete), 1, 0}
			frame := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
			f, err := os.OpenFile(lastSegmentPath(t, dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(append(frame, payload...)); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			appendAll(t, dir, Options{}, recs)
			tc.tear(t, dir)
			before, _ := collect(t, dir)
			assertRecordsEqual(t, recs, before)
			l, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			after, _ := collect(t, dir)
			assertRecordsEqual(t, before, after)
		})
	}
}
