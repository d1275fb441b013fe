package wal

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"github.com/trajcover/trajcover/internal/faultfs"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func faultRecord(t *testing.T, id uint32) Record {
	t.Helper()
	u, err := trajectory.New(trajectory.ID(id), []geo.Point{{X: 0, Y: 0}, {X: 1, Y: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return Record{Op: OpInsert, Trajectory: u, ID: u.ID}
}

// TestLogWedgesOnInjectedSyncError: an fsync failure must wedge the log
// (no later ack), expose the cause via Err, and a successor Open over
// the same directory must resume appending on a fresh segment with the
// acked prefix intact.
func TestLogWedgesOnInjectedSyncError(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, 1)
	opts := Options{Sync: SyncAlways, FS: inj}

	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two clean acked appends.
	for i := uint32(1); i <= 2; i++ {
		lsn, err := l.Append(faultRecord(t, i))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Err(); err != nil {
		t.Fatalf("healthy log reports Err %v", err)
	}

	// Fail the next fsync: the append's ack must fail and the log must
	// wedge stickily.
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 1})
	lsn, err := l.Append(faultRecord(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("WaitDurable after injected fsync error: got %v", err)
	}
	if err := l.Err(); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("Err() = %v, want the injected fault", err)
	}
	if _, err := l.Append(faultRecord(t, 4)); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("append on wedged log: got %v, want sticky wedge", err)
	}
	inj.Heal()
	if _, err := l.Append(faultRecord(t, 5)); err == nil {
		t.Fatal("wedge must be sticky even after the disk heals")
	}
	l.Close()

	// A successor log resumes on a fresh segment; replay sees the acked
	// prefix (ids 1,2) and possibly the unacked id 3, never id 4/5.
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var ids []uint32
	if _, _, err := Replay(dir, func(rec Record) error {
		ids = append(ids, uint32(rec.ID))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) < 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("acked prefix lost: replayed %v", ids)
	}
	for _, id := range ids {
		if id >= 4 {
			t.Fatalf("rejected append leaked to disk: replayed %v", ids)
		}
	}
	lsn, err = l2.Append(faultRecord(t, 6))
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
}

// TestLogShortWriteTornTail: a torn (short) write must at worst leave a
// torn final record, which the successor Open truncates away.
func TestLogShortWriteTornTail(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, 7)
	opts := Options{Sync: SyncAlways, FS: inj}

	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.Append(faultRecord(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// Tear the next record's payload mid-write. The bufio flush path
	// surfaces the failure at sync time at the latest.
	inj.Add(faultfs.Rule{Op: faultfs.OpWrite, Nth: 1, Fault: faultfs.Fault{ShortWrite: true}})
	if lsn, err = l.Append(faultRecord(t, 2)); err == nil {
		err = l.WaitDurable(lsn)
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("torn write not surfaced: %v", err)
	}
	l.Close()
	inj.Heal()

	// Reopen: the torn tail is truncated, record 1 survives, appends work.
	l2, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer l2.Close()
	var ids []uint32
	if _, _, err := Replay(dir, func(rec Record) error {
		ids = append(ids, uint32(rec.ID))
		return nil
	}); err != nil {
		t.Fatalf("replay after torn-tail truncation: %v", err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("want exactly the acked record 1, got %v", ids)
	}
}

// TestLogENOSPCRotation: ENOSPC on segment creation fails the rotation
// and wedges the log, and the error still matches syscall.ENOSPC.
func TestLogENOSPCRotation(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, 3)
	// Tiny segments force a rotation on the second append.
	opts := Options{Sync: SyncAlways, SegmentBytes: 32, FS: inj}
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.Append(faultRecord(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpCreate, Nth: 1, Fault: faultfs.Fault{Err: faultfs.ErrNoSpace}})
	_, err = l.Append(faultRecord(t, 2))
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("rotation under ENOSPC: got %v", err)
	}
	if err := l.Err(); err == nil {
		t.Fatal("log must wedge after failed rotation")
	}
}

// TestReopenReadFaultLeavesSegment: a read that fails while Open scans
// the final segment says nothing about the bytes on disk, so Open
// returns the error and leaves the segment as it was; a later replay
// reads every durable record.
func TestReopenReadFaultLeavesSegment(t *testing.T) {
	dir := t.TempDir()
	recs := testHistory(6)
	appendAll(t, dir, Options{}, recs)
	path := lastSegmentPath(t, dir)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(nil, 1)
	inj.Add(faultfs.Rule{Op: faultfs.OpRead, Path: "wal-", Nth: 1})
	if l, err := Open(dir, Options{FS: inj}); !errors.Is(err, faultfs.ErrInjected) {
		if l != nil {
			l.Close()
		}
		t.Fatalf("Open under a read fault = %v, want the injected error", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("Open under a read fault rewrote the segment: %d bytes -> %d", len(before), len(after))
	}
	got, torn := collect(t, dir)
	if torn {
		t.Fatal("intact log reported torn")
	}
	assertRecordsEqual(t, recs, got)
}
