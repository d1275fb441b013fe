// Package wal is the durability layer under the live serving path: a
// write-ahead log of Insert/Delete records appended to rotating segment
// files, replayed on boot, and truncated at checkpoints. It follows the
// segment-file + replay-on-boot design of Grafana Tempo's tempodb/wal,
// adapted to trajectory records and the CRC framing idiom of the
// snapshot formats.
//
// Layout: a WAL directory holds numbered segment files
//
//	wal-00000001.seg
//	wal-00000002.seg
//	...
//
// Each segment starts with an 16-byte header (8-byte magic "TQWAL001",
// uint64 segment index) followed by records framed as
//
//	uint32 payloadLen | uint32 CRC32(payload) | payload
//
// where a payload is one op byte (opInsert/opDelete) plus the trajectory
// encoding shared with the snapshot formats (uint32 id, uint32 npts,
// float64 x/y pairs) for inserts, or a uint32 id for deletes.
//
// Recovery contract (the torn-tail rule): a truncated or CRC-corrupt
// FINAL record of the FINAL segment is a torn tail — the crash landed
// mid-append — and is silently dropped. Any earlier framing or CRC
// failure means bytes the log previously claimed durable are gone, and
// replay fails hard rather than serving a silently wrong corpus.
//
// Write path: appends are serialized by the caller (the live index's
// writer lock), buffered, and made durable per the configured
// SyncPolicy. SyncAlways acknowledges a record only after an fsync
// covering it — Append returns an LSN and WaitDurable(lsn) blocks until
// durable, with a group commit: every waiter piled up behind one fsync
// is released by it, so the fsync cost amortizes across concurrent
// writers. SyncInterval fsyncs on a background ticker; SyncNone leaves
// durability to the OS page cache.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trajcover/trajcover/internal/faultfs"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Magic opens every segment file.
var Magic = [8]byte{'T', 'Q', 'W', 'A', 'L', '0', '0', '1'}

// ErrCorrupt marks a segment whose framing or checksum fails before the
// final record — replay cannot trust anything at or past the failure.
var ErrCorrupt = errors.New("wal: corrupt segment")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// SyncPolicy selects when appended records become durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before acknowledging a write (group commit).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background ticker (Options.SyncEvery).
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes at its leisure.
	SyncNone
)

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy parses the flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval, or none)", s)
}

// Options tunes a log. The zero value syncs on every acknowledged write
// and rotates segments at 64 MiB.
type Options struct {
	// Sync selects the durability policy (default SyncAlways).
	Sync SyncPolicy
	// SyncEvery is the background fsync period under SyncInterval
	// (<= 0: 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates to a fresh segment once the current one
	// grows past this size (<= 0: 64 MiB).
	SegmentBytes int64
	// FS is the filesystem all segment IO goes through (nil: the real
	// OS). Tests inject a faultfs.Injector here to script disk faults.
	FS faultfs.FS
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	o.FS = faultfs.OrOS(o.FS)
	return o
}

// Op is a record's operation kind.
type Op byte

const (
	// OpInsert records an acknowledged Insert; the payload carries the
	// full trajectory.
	OpInsert Op = 1
	// OpDelete records an acknowledged Delete; the payload carries the id.
	OpDelete Op = 2
)

// Record is one logical write. Trajectory is set for OpInsert, ID for
// OpDelete (an insert's ID is Trajectory.ID).
type Record struct {
	Op         Op
	Trajectory *trajectory.Trajectory
	ID         trajectory.ID
}

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Records counts appends accepted since Open (replayed records are
	// not re-counted).
	Records uint64
	// Segments is the number of live segment files.
	Segments int
	// Bytes is the total size of all live segments as appended (buffered
	// bytes included).
	Bytes int64
	// Fsyncs counts explicit fsync calls on segment files.
	Fsyncs uint64
	// MaxFsyncNanos is the slowest observed fsync.
	MaxFsyncNanos int64
	// FirstSegment and LastSegment bound the live segment indexes.
	FirstSegment, LastSegment uint64
}

// Log is an open write-ahead log positioned for appending. Append is
// safe for one caller at a time (the live index's writer lock provides
// that); WaitDurable, Stats, and Rotate are safe concurrently.
type Log struct {
	dir  string
	opts Options
	fs   faultfs.FS

	// mu guards the segment file, buffer, and append state.
	mu       sync.Mutex
	f        faultfs.File
	w        *bufio.Writer
	seg      uint64 // current segment index
	segBytes int64  // bytes appended to the current segment
	first    uint64 // oldest live segment index
	segSizes map[uint64]int64
	appended uint64 // LSN of the last buffered record
	closed   bool

	// Group-commit state (smu): durable is the highest LSN covered by a
	// completed fsync; syncing marks an fsync in flight; failed wedges
	// the log after an IO error — no later write may be acknowledged.
	smu     sync.Mutex
	scond   *sync.Cond
	durable uint64
	syncing bool
	failed  error

	stopTicker chan struct{}
	tickerDone chan struct{}
	closeOnce  sync.Once

	records  atomic.Uint64
	fsyncs   atomic.Uint64
	maxFsync atomic.Int64
}

// segmentName formats a segment file name.
func segmentName(idx uint64) string { return fmt.Sprintf("wal-%08d.seg", idx) }

// parseSegmentName inverts segmentName; ok is false for foreign files.
func parseSegmentName(name string) (uint64, bool) {
	var idx uint64
	if _, err := fmt.Sscanf(name, "wal-%d.seg", &idx); err != nil {
		return 0, false
	}
	if name != segmentName(idx) {
		return 0, false
	}
	return idx, true
}

// ListSegments returns the live segment indexes in dir, sorted.
func ListSegments(dir string) ([]uint64, error) {
	return listSegments(faultfs.OS, dir)
}

func listSegments(fsys faultfs.FS, dir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []uint64
	for _, e := range ents {
		if idx, ok := parseSegmentName(e.Name()); ok {
			segs = append(segs, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return segs, nil
}

// Replay reads every record of every segment in dir in order, calling
// apply for each. A torn tail (truncated or CRC-corrupt final record of
// the final segment) is reported via torn and otherwise ignored; any
// earlier failure returns ErrCorrupt. A directory with no segments
// replays zero records.
func Replay(dir string, apply func(Record) error) (n int, torn bool, err error) {
	return ReplayFrom(dir, 0, apply)
}

// ReplayFrom is Replay restricted to segments with index >= from — the
// recovery path after a checkpoint cut at `from`: pre-cut segments are
// covered by the checkpoint snapshot (they linger only when a crash hit
// between the checkpoint rename and the segment removal) and are
// skipped. A positive `from` must name an existing segment: the cut
// segment is created by the checkpoint's rotation and only ever removed
// by a LATER checkpoint, so its absence means lost history.
func ReplayFrom(dir string, from uint64, apply func(Record) error) (n int, torn bool, err error) {
	all, err := ListSegments(dir)
	if err != nil {
		return 0, false, err
	}
	segs := all[:0:0]
	for _, idx := range all {
		if idx >= from {
			segs = append(segs, idx)
		}
	}
	if from > 0 && (len(segs) == 0 || segs[0] != from) {
		return 0, false, fmt.Errorf("%w: checkpoint cut segment %d missing", ErrCorrupt, from)
	}
	for i, idx := range segs {
		if i > 0 && idx != segs[i-1]+1 {
			return n, false, fmt.Errorf("%w: segment gap %d -> %d", ErrCorrupt, segs[i-1], idx)
		}
		final := i == len(segs)-1
		sn, st, err := replaySegment(filepath.Join(dir, segmentName(idx)), idx, final, apply)
		n += sn
		if err != nil {
			return n, false, err
		}
		if st {
			torn = true
		}
	}
	return n, torn, nil
}

// replaySegment reads one segment. final marks the last live segment —
// the only place a torn tail is legal.
func replaySegment(path string, idx uint64, final bool, apply func(Record) error) (int, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)

	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		// Even the header is torn-tail territory: a crash can die between
		// creating a rotated segment and writing its header.
		if final {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("%w: segment %d: truncated header", ErrCorrupt, idx)
	}
	if [8]byte(hdr[:8]) != Magic {
		return 0, false, fmt.Errorf("%w: segment %d: bad magic", ErrCorrupt, idx)
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != idx {
		return 0, false, fmt.Errorf("%w: segment %d: header names segment %d", ErrCorrupt, idx, got)
	}

	n := 0
	for {
		var frame [8]byte
		if _, err := io.ReadFull(br, frame[:]); err != nil {
			if err == io.EOF {
				return n, false, nil // clean end of segment
			}
			// Partial frame header.
			if final {
				return n, true, nil
			}
			return n, false, fmt.Errorf("%w: segment %d: truncated record frame after %d records", ErrCorrupt, idx, n)
		}
		payloadLen := binary.LittleEndian.Uint32(frame[:4])
		wantCRC := binary.LittleEndian.Uint32(frame[4:])
		if payloadLen == 0 || payloadLen > maxRecordBytes {
			if final && peekEOF(br) {
				return n, true, nil // a torn length field at the very tail
			}
			return n, false, fmt.Errorf("%w: segment %d: implausible record length %d", ErrCorrupt, idx, payloadLen)
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(br, payload); err != nil {
			if final {
				return n, true, nil
			}
			return n, false, fmt.Errorf("%w: segment %d: truncated record payload after %d records", ErrCorrupt, idx, n)
		}
		if crc32.ChecksumIEEE(payload) != wantCRC {
			// A CRC failure is a tolerated torn tail only when it is the
			// very last record on disk; a mismatch with more bytes behind
			// it is corruption of data the log had claimed durable.
			if final && peekEOF(br) {
				return n, true, nil
			}
			return n, false, fmt.Errorf("%w: segment %d: record %d checksum mismatch", ErrCorrupt, idx, n)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			if final && peekEOF(br) {
				return n, true, nil
			}
			return n, false, fmt.Errorf("%w: segment %d: record %d: %v", ErrCorrupt, idx, n, err)
		}
		if err := apply(rec); err != nil {
			return n, false, err
		}
		n++
	}
}

// peekEOF reports whether the reader has no bytes left.
func peekEOF(br *bufio.Reader) bool {
	_, err := br.Peek(1)
	return err == io.EOF
}

// maxRecordBytes bounds one record so a corrupt length field fails fast
// instead of attempting an absurd allocation: a trajectory record is
// 1 + 4 + 4 + 16*npts bytes and npts is capped like the snapshot codec.
const maxRecordBytes = 1 + 4 + 4 + 16*(1<<24)

// encodeRecord appends rec's payload encoding to buf.
func encodeRecord(buf []byte, rec Record) ([]byte, error) {
	switch rec.Op {
	case OpInsert:
		u := rec.Trajectory
		if u == nil {
			return nil, errors.New("wal: insert record without trajectory")
		}
		buf = append(buf, byte(OpInsert))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.ID))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(u.Len()))
		for _, p := range u.Points {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.X))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Y))
		}
		return buf, nil
	case OpDelete:
		buf = append(buf, byte(OpDelete))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.ID))
		return buf, nil
	}
	return nil, fmt.Errorf("wal: unknown op %d", rec.Op)
}

// decodeRecord inverts encodeRecord.
func decodeRecord(payload []byte) (Record, error) {
	if len(payload) == 0 {
		return Record{}, errors.New("empty record")
	}
	switch Op(payload[0]) {
	case OpInsert:
		body := payload[1:]
		if len(body) < 8 {
			return Record{}, errors.New("short insert record")
		}
		id := binary.LittleEndian.Uint32(body[:4])
		npts := binary.LittleEndian.Uint32(body[4:8])
		if npts < 2 || npts > 1<<24 {
			return Record{}, fmt.Errorf("insert record with %d points", npts)
		}
		if uint64(len(body)) != 8+16*uint64(npts) {
			return Record{}, fmt.Errorf("insert record length %d does not match %d points", len(body), npts)
		}
		pts := make([]geo.Point, npts)
		for i := range pts {
			off := 8 + 16*i
			pts[i].X = math.Float64frombits(binary.LittleEndian.Uint64(body[off:]))
			pts[i].Y = math.Float64frombits(binary.LittleEndian.Uint64(body[off+8:]))
		}
		u, err := trajectory.New(trajectory.ID(id), pts)
		if err != nil {
			return Record{}, err
		}
		return Record{Op: OpInsert, Trajectory: u, ID: u.ID}, nil
	case OpDelete:
		if len(payload) != 5 {
			return Record{}, fmt.Errorf("delete record length %d", len(payload))
		}
		return Record{Op: OpDelete, ID: trajectory.ID(binary.LittleEndian.Uint32(payload[1:]))}, nil
	}
	return Record{}, fmt.Errorf("unknown op %d", payload[0])
}

// Open opens the log in dir for appending, creating the directory and
// the first segment as needed. Existing segments are left in place —
// replay them first with Replay — except a torn tail, which Open
// truncates away so the next append lands on a clean record boundary.
// Appends continue in a freshly rotated segment, never by seeking into
// an old one: replayed bytes are immutable history.
func Open(dir string, opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	segs, err := listSegments(opts.FS, dir)
	if err != nil {
		return nil, err
	}
	l := &Log{
		dir:        dir,
		opts:       opts,
		fs:         opts.FS,
		segSizes:   map[uint64]int64{},
		stopTicker: make(chan struct{}),
		tickerDone: make(chan struct{}),
	}
	l.scond = sync.NewCond(&l.smu)
	next := uint64(1)
	if len(segs) > 0 {
		l.first = segs[0]
		next = segs[len(segs)-1] + 1
		for _, idx := range segs {
			path := filepath.Join(dir, segmentName(idx))
			if idx == segs[len(segs)-1] {
				if err := truncateTornTail(opts.FS, path, idx); err != nil {
					return nil, err
				}
			}
			info, err := opts.FS.Stat(path)
			if err != nil {
				return nil, err
			}
			l.segSizes[idx] = info.Size()
		}
	} else {
		l.first = next
	}
	if err := l.openSegment(next); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.tickerDone)
	}
	return l, nil
}

// truncateTornTail scans the final segment and truncates it to the end
// of its last intact record, so a torn append cannot shadow future
// appends. Corruption before the tail is left for Replay to refuse.
func truncateTornTail(fsys faultfs.FS, path string, idx uint64) error {
	f, err := faultfs.Open(fsys, path)
	if err != nil {
		return err
	}
	good := int64(0)
	br := bufio.NewReaderSize(f, 1<<16)
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err == nil && [8]byte(hdr[:8]) == Magic {
		good = 16
		for {
			var frame [8]byte
			if _, err := io.ReadFull(br, frame[:]); err != nil {
				break
			}
			payloadLen := binary.LittleEndian.Uint32(frame[:4])
			wantCRC := binary.LittleEndian.Uint32(frame[4:])
			if payloadLen == 0 || payloadLen > maxRecordBytes {
				break
			}
			payload := make([]byte, payloadLen)
			if _, err := io.ReadFull(br, payload); err != nil {
				break
			}
			if crc32.ChecksumIEEE(payload) != wantCRC {
				break
			}
			good += 8 + int64(payloadLen)
		}
	}
	f.Close()
	info, err := fsys.Stat(path)
	if err != nil {
		return err
	}
	if info.Size() == good {
		return nil
	}
	if err := fsys.Truncate(path, good); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// openSegment creates and syncs segment idx and makes it current.
// Caller holds mu or has exclusive access.
func (l *Log) openSegment(idx uint64) error {
	path := filepath.Join(l.dir, segmentName(idx))
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [16]byte
	copy(hdr[:8], Magic[:])
	binary.LittleEndian.PutUint64(hdr[8:], idx)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	// The header (and the directory entry) must be durable before any
	// record in this segment can be claimed durable.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	l.seg = idx
	l.segBytes = 16
	l.segSizes[idx] = 16
	return nil
}

// Append buffers one record and returns its LSN (1-based count of
// appends this process). The record is NOT durable until WaitDurable
// returns for that LSN (SyncAlways) or a background/interval sync
// covers it. Callers must serialize Append with each other; the live
// index's writer lock does.
func (l *Log) Append(rec Record) (uint64, error) {
	payload, err := encodeRecord(nil, rec)
	if err != nil {
		return 0, err
	}
	l.smu.Lock()
	failed := l.failed
	l.smu.Unlock()
	if failed != nil {
		return 0, failed
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.segBytes >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.wedge(err)
			return 0, err
		}
	}
	var frame [8]byte
	binary.LittleEndian.PutUint32(frame[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(frame[:]); err != nil {
		l.wedge(err)
		return 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		l.wedge(err)
		return 0, err
	}
	l.segBytes += int64(8 + len(payload))
	l.segSizes[l.seg] = l.segBytes
	l.appended++
	l.records.Add(1)
	return l.appended, nil
}

// wedge records a permanent IO failure: no later append or ack may
// succeed once bytes of unknown extent hit the disk.
func (l *Log) wedge(err error) {
	l.smu.Lock()
	if l.failed == nil {
		l.failed = err
	}
	l.scond.Broadcast()
	l.smu.Unlock()
}

// WaitDurable blocks until every record up to lsn is durable per the
// sync policy. Under SyncAlways the caller either rides a sync already
// in flight or becomes the syncer for everything appended so far — the
// group commit. Under SyncInterval/SyncNone it returns immediately
// (durability is the ticker's/OS's job).
func (l *Log) WaitDurable(lsn uint64) error {
	if l.opts.Sync != SyncAlways {
		l.smu.Lock()
		defer l.smu.Unlock()
		return l.failed
	}
	l.smu.Lock()
	for {
		if l.failed != nil {
			err := l.failed
			l.smu.Unlock()
			return err
		}
		if l.durable >= lsn {
			l.smu.Unlock()
			return nil
		}
		if !l.syncing {
			break
		}
		l.scond.Wait()
	}
	l.syncing = true
	l.smu.Unlock()

	target, err := l.syncNow()

	l.smu.Lock()
	l.syncing = false
	if err != nil {
		if l.failed == nil {
			l.failed = err
		}
	} else if target > l.durable {
		l.durable = target
	}
	l.scond.Broadcast()
	l.smu.Unlock()
	return err
}

// syncNow flushes the buffer and fsyncs the current segment, returning
// the highest LSN the sync covers.
func (l *Log) syncNow() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	target := l.appended
	if err := l.w.Flush(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return 0, err
	}
	l.observeFsync(time.Since(start))
	return target, nil
}

func (l *Log) observeFsync(d time.Duration) {
	l.fsyncs.Add(1)
	ns := d.Nanoseconds()
	for {
		cur := l.maxFsync.Load()
		if ns <= cur || l.maxFsync.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// syncLoop is the SyncInterval ticker.
func (l *Log) syncLoop() {
	defer close(l.tickerDone)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopTicker:
			return
		case <-t.C:
			if _, err := l.syncNow(); err != nil && !errors.Is(err, ErrClosed) {
				l.wedge(err)
				return
			}
		}
	}
}

// rotateLocked seals the current segment (flush + fsync) and opens the
// next. Caller holds mu.
func (l *Log) rotateLocked() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.observeFsync(time.Since(start))
	if err := l.f.Close(); err != nil {
		return err
	}
	return l.openSegment(l.seg + 1)
}

// Rotate seals the current segment and starts a new one, returning the
// new segment's index — the checkpoint cut: records appended after
// Rotate land in segments >= the returned index. Call under the same
// exclusion as Append (the live index does, inside its writer lock).
func (l *Log) Rotate() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if err := l.rotateLocked(); err != nil {
		l.wedge(err)
		return 0, err
	}
	return l.seg, nil
}

// RemoveBefore deletes every segment with index < cut — the truncation
// half of a checkpoint, called only after the checkpoint snapshot is
// durable.
func (l *Log) RemoveBefore(cut uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for idx := l.first; idx < cut && idx < l.seg; idx++ {
		if err := l.fs.Remove(filepath.Join(l.dir, segmentName(idx))); err != nil && !os.IsNotExist(err) {
			return err
		}
		delete(l.segSizes, idx)
	}
	if cut > l.first {
		l.first = cut
		if l.first > l.seg {
			l.first = l.seg
		}
	}
	return l.fs.SyncDir(l.dir)
}

// Stats returns the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	var bytes int64
	for _, sz := range l.segSizes {
		bytes += sz
	}
	st := Stats{
		Segments:     len(l.segSizes),
		Bytes:        bytes,
		FirstSegment: l.first,
		LastSegment:  l.seg,
	}
	l.mu.Unlock()
	st.Records = l.records.Load()
	st.Fsyncs = l.fsyncs.Load()
	st.MaxFsyncNanos = l.maxFsync.Load()
	return st
}

// Err returns the error that wedged the log, or nil while it is
// healthy. A wedged log rejects every later append and ack; the owner
// is expected to stop writing through it, open a successor with Open
// (which verifies and truncates the torn tail), and resume there.
func (l *Log) Err() error {
	l.smu.Lock()
	defer l.smu.Unlock()
	return l.failed
}

// Close flushes, fsyncs, and closes the current segment and stops the
// background sync loop. Idempotent.
func (l *Log) Close() error {
	var firstErr error
	l.closeOnce.Do(func() {
		close(l.stopTicker)
		<-l.tickerDone
		l.mu.Lock()
		defer l.mu.Unlock()
		l.closed = true
		if err := l.w.Flush(); err != nil {
			firstErr = err
		}
		if err := l.f.Sync(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := l.f.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	})
	return firstErr
}
