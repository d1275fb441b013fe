// Package wal is the durability layer under the live serving path: a
// write-ahead log of Insert/Delete records appended to rotating segment
// files, replayed on boot, and truncated at checkpoints. It follows the
// segment-file + replay-on-boot design of Grafana Tempo's tempodb/wal,
// adapted to trajectory records and the CRC framing idiom of the
// snapshot formats.
//
// Layout: a WAL directory holds numbered segment files (wal-00000001.seg,
// wal-00000002.seg, ...) and the checkpoints that cut them
// (checkpoint-00000002.tqlive covers every segment below 2). This package
// alone names, lists, scans, repairs and removes them, all through
// Options.FS.
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
// Recovery contract (the torn-tail rule): a truncated header, frame or
// payload, an implausible length, a CRC mismatch or an undecodable
// record with nothing after it in the FINAL segment is a torn tail —
// the crash landed mid-append — and is silently dropped. The same
// damage anywhere else means bytes the log claimed durable are gone,
// and replay fails hard with ErrCorrupt. A failed read is neither. One
// scanner applies this rule for Replay and for Open's repair, so a
// reopened log replays what it replayed before. A boot (Recover) replays
// and then opens, and hands the replay's scan of the final segment to
// the repair, so it reads that segment once.
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
	"slices"
	"strconv"
	"strings"
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
	// FS is the filesystem all segment and checkpoint IO goes through
	// (nil: the real OS). Tests inject a faultfs.Injector here to script
	// disk faults.
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

// fileKind is one numbered file family of a WAL directory.
type fileKind struct{ prefix, suffix string }

var (
	segmentFile    = fileKind{"wal-", ".seg"}
	checkpointFile = fileKind{"checkpoint-", ".tqlive"}
)

// name formats the file of index idx.
func (k fileKind) name(idx uint64) string {
	return fmt.Sprintf("%s%08d%s", k.prefix, idx, k.suffix)
}

// parse inverts name; ok is false for foreign files.
func (k fileKind) parse(name string) (idx uint64, ok bool) {
	digits, hasPrefix := strings.CutPrefix(name, k.prefix)
	digits, hasSuffix := strings.CutSuffix(digits, k.suffix)
	idx, err := strconv.ParseUint(digits, 10, 64)
	return idx, hasPrefix && hasSuffix && err == nil && name == k.name(idx)
}

// listing is one read of a WAL directory: its segment and checkpoint
// indexes, ascending, and the names of abandoned checkpoint .tmp files.
type listing struct {
	segs, ckpts []uint64
	tmps        []string
}

func listDir(fsys faultfs.FS, dir string) (listing, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return listing{}, err
	}
	var ls listing
	for _, e := range ents {
		name := e.Name()
		base, isTmp := strings.CutSuffix(name, ".tmp")
		if idx, ok := segmentFile.parse(name); ok {
			ls.segs = append(ls.segs, idx)
		} else if cut, ok := checkpointFile.parse(base); ok && isTmp {
			ls.tmps = append(ls.tmps, name)
		} else if ok {
			ls.ckpts = append(ls.ckpts, cut)
		}
	}
	slices.Sort(ls.segs)
	slices.Sort(ls.ckpts)
	return ls, nil
}

// LatestCheckpoint returns the path and cut of the newest checkpoint in
// dir, or path "" when there is none.
func LatestCheckpoint(fsys faultfs.FS, dir string) (path string, cut uint64, err error) {
	ls, err := listDir(fsys, dir)
	if err != nil || len(ls.ckpts) == 0 {
		return "", 0, err
	}
	cut = ls.ckpts[len(ls.ckpts)-1]
	return filepath.Join(dir, checkpointFile.name(cut)), cut, nil
}

// Replay reads every record of every segment in dir in order, calling
// apply for each. A torn tail is reported via torn and otherwise
// ignored; any earlier damage returns ErrCorrupt. A directory with no
// segments replays zero records.
func Replay(dir string, apply func(Record) error) (n int, torn bool, err error) {
	return ReplayFrom(faultfs.OS, dir, 0, apply)
}

// ReplayFrom is Replay through fsys from segment `from` on — the
// recovery path after a checkpoint cut at `from`, which covers any
// lingering earlier segment. A positive `from` must name an existing
// segment: the checkpoint's rotation created it and only a LATER
// checkpoint removes it, so its absence means lost history.
func ReplayFrom(fsys faultfs.FS, dir string, from uint64, apply func(Record) error) (n int, torn bool, err error) {
	ls, err := listDir(fsys, dir)
	if err != nil {
		return 0, false, err
	}
	n, end, err := replay(fsys, dir, ls, from, apply)
	return n, end.defect, err // a replay stops at no defect but a torn tail
}

// tail is what a scan found of a directory's final segment: its index,
// the offset just past its last accepted record (scanSegment's good), and
// whether it stopped at a defect the repair cuts away — a torn tail, or,
// for Open's own scan, ErrCorrupt. The zero tail stands for no segment.
type tail struct {
	idx    uint64
	good   int64
	defect bool
}

// replay is ReplayFrom over the listing ls, returning also the final
// segment's tail when it replayed one.
func replay(fsys faultfs.FS, dir string, ls listing, from uint64, apply func(Record) error) (n int, end tail, err error) {
	segs := ls.segs[sortedSearch(ls.segs, from):]
	if from > 0 && (len(segs) == 0 || segs[0] != from) {
		return 0, tail{}, fmt.Errorf("%w: checkpoint cut segment %d missing", ErrCorrupt, from)
	}
	for i, idx := range segs {
		if i > 0 && idx != segs[i-1]+1 {
			return n, tail{}, fmt.Errorf("%w: segment gap %d -> %d", ErrCorrupt, segs[i-1], idx)
		}
		sn, good, torn, err := scanFile(fsys, dir, idx, i == len(segs)-1, apply)
		n += sn
		if err != nil {
			return n, tail{}, err
		}
		end = tail{idx: idx, good: good, defect: torn}
	}
	return n, end, nil
}

// sortedSearch is the first position in ascending s holding >= v.
func sortedSearch(s []uint64, v uint64) int {
	i, _ := slices.BinarySearch(s, v)
	return i
}

// scanFile opens segment idx of dir through fsys and scans it.
func scanFile(fsys faultfs.FS, dir string, idx uint64, final bool, apply func(Record) error) (n int, good int64, torn bool, err error) {
	f, err := faultfs.Open(fsys, filepath.Join(dir, segmentFile.name(idx)))
	if err != nil {
		return 0, 0, false, err
	}
	defer f.Close()
	return scanSegment(f, idx, final, apply)
}

// scanSegment is the one walk of the segment format, shared by replay
// and Open's tail repair; it applies the torn-tail rule (package
// comment), final marking the last live segment. It calls apply (which
// may be nil) for each record and returns the records read, the byte
// offset just past the last record it accepted (0 when it accepted no
// header), and whether it stopped at a torn tail. A read error other
// than running out of bytes says nothing about the bytes on disk, so it
// is returned as it is.
func scanSegment(r io.Reader, idx uint64, final bool, apply func(Record) error) (n int, good int64, torn bool, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	// stop ends the scan at a defect; rest is io.EOF when nothing
	// follows the defect, nil when bytes do, or the read error.
	stop := func(rest error, format string, args ...any) (int, int64, bool, error) {
		switch {
		case rest == io.EOF && final:
			return n, good, true, nil
		case rest != nil && rest != io.EOF:
			return n, good, false, rest
		}
		return n, good, false, fmt.Errorf("%w: segment %d: %s", ErrCorrupt, idx, fmt.Sprintf(format, args...))
	}
	var hdr [16]byte
	if err := fill(br, hdr[:]); err != nil {
		// A crash can die between creating a rotated segment and
		// writing its header.
		return stop(err, "truncated header")
	}
	if [8]byte(hdr[:8]) != Magic {
		return stop(nil, "bad magic")
	}
	if got := binary.LittleEndian.Uint64(hdr[8:]); got != idx {
		return stop(nil, "header names segment %d", got)
	}
	good = int64(len(hdr))
	var frame [8]byte
	var payload []byte // reused: decodeRecord copies what it keeps
	for {
		if err := peek(br); err != nil {
			if err == io.EOF {
				err = nil // clean end of segment
			}
			return n, good, false, err
		}
		if err := fill(br, frame[:]); err != nil {
			return stop(err, "truncated record frame after %d records", n)
		}
		size := binary.LittleEndian.Uint32(frame[:4])
		if size == 0 || size > maxRecordBytes {
			return stop(peek(br), "implausible record length %d", size)
		}
		payload = slices.Grow(payload[:0], int(size))[:size]
		if err := fill(br, payload); err != nil {
			return stop(err, "truncated record payload after %d records", n)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frame[4:]) {
			return stop(peek(br), "record %d checksum mismatch", n)
		}
		rec, err := decodeRecord(payload)
		if err != nil {
			return stop(peek(br), "record %d: %v", n, err)
		}
		if apply != nil {
			if err := apply(rec); err != nil {
				return n, good, false, err
			}
		}
		n++
		good += int64(len(frame)) + int64(size)
	}
}

// fill reads all of buf; running out of bytes, before or inside it, is io.EOF.
func fill(br *bufio.Reader, buf []byte) error {
	if _, err := io.ReadFull(br, buf); err != io.ErrUnexpectedEOF {
		return err
	}
	return io.EOF
}

// peek is io.EOF when br is empty, nil when it is not, or the read error.
func peek(br *bufio.Reader) error {
	_, err := br.Peek(1)
	return err
}

// repairTail readies the final segment for appends and returns its size.
// A tail with a defect, torn or ErrCorrupt, is cut back to its last
// accepted record, or the file removed when no header was accepted (size
// 0: Open reuses its index, so no gap is left).
func repairTail(fsys faultfs.FS, dir string, end tail) (size int64, err error) {
	if !end.defect {
		return end.good, nil
	}
	path := filepath.Join(dir, segmentFile.name(end.idx))
	if end.good == 0 {
		err = fsys.Remove(path)
	} else {
		err = fsys.Truncate(path, end.good)
	}
	if err == nil {
		err = fsys.SyncDir(dir)
	}
	return end.good, err
}

// Checkpoint makes the checkpoint whose cut is segment cut durable:
// write streams it into a .tmp file, which is fsynced and renamed into
// place before the directory is fsynced. Then RemoveBefore(cut) drops
// what it covers; a failure there does not undo the checkpoint. It
// returns the checkpoint's path.
func (l *Log) Checkpoint(cut uint64, write func(io.Writer) error) (string, error) {
	path := filepath.Join(l.dir, checkpointFile.name(cut))
	tmp := path + ".tmp"
	f, err := faultfs.Create(l.fs, tmp)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = l.fs.Rename(tmp, path)
	}
	if err == nil {
		err = l.fs.SyncDir(l.dir)
	}
	if err != nil {
		l.fs.Remove(tmp)
		return "", err
	}
	return path, l.RemoveBefore(cut)
}

// RemoveBefore drops, from one listing of the directory, every segment
// and every checkpoint below cut and every abandoned checkpoint .tmp
// file — the truncation half of a checkpoint, called once the
// checkpoint at cut is durable. The current segment always stays.
func (l *Log) RemoveBefore(cut uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	ls, err := listDir(l.fs, l.dir)
	if err != nil {
		return err
	}
	stale := ls.tmps
	for _, idx := range ls.segs[:sortedSearch(ls.segs, min(cut, l.seg))] {
		stale = append(stale, segmentFile.name(idx))
		delete(l.segSizes, idx)
	}
	for _, c := range ls.ckpts[:sortedSearch(ls.ckpts, cut)] {
		stale = append(stale, checkpointFile.name(c))
	}
	for _, name := range stale {
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	l.first = max(l.first, min(cut, l.seg))
	return l.fs.SyncDir(l.dir)
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
// replay them first with Replay — except the final one, which Open
// scans and repairs (repairTail) so the next append lands on a clean
// record boundary. Appends continue in a freshly rotated segment, never
// by seeking into an old one: replayed bytes are immutable history.
func Open(dir string, opts Options) (*Log, error) {
	opts, ls, err := listForOpen(dir, opts)
	if err != nil {
		return nil, err
	}
	var end tail
	if n := len(ls.segs); n > 0 {
		idx := ls.segs[n-1]
		_, good, torn, err := scanFile(opts.FS, dir, idx, true, nil)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			return nil, err // a read error leaves the file untouched
		}
		end = tail{idx: idx, good: good, defect: torn || err != nil}
	}
	return open(dir, opts, ls, end)
}

// Recover is the boot path: ReplayFrom(opts.FS, dir, from, apply), then
// Open, over one listing of dir, reading the final segment once — the
// replay's scan of it is the tail Open's repair needs.
func Recover(dir string, from uint64, opts Options, apply func(Record) error) (*Log, error) {
	opts, ls, err := listForOpen(dir, opts)
	if err != nil {
		return nil, err
	}
	_, end, err := replay(opts.FS, dir, ls, from, apply)
	if err != nil {
		return nil, err
	}
	return open(dir, opts, ls, end)
}

// listForOpen applies opts' defaults, creates dir if need be and lists it.
func listForOpen(dir string, opts Options) (Options, listing, error) {
	opts = opts.withDefaults()
	if err := opts.FS.MkdirAll(dir, 0o755); err != nil {
		return opts, listing{}, err
	}
	ls, err := listDir(opts.FS, dir)
	return opts, ls, err
}

// open is Open once dir is listed (ls) and its final segment scanned
// (end, the zero tail when ls has no segment).
func open(dir string, opts Options, ls listing, end tail) (*Log, error) {
	l := &Log{
		dir:        dir,
		opts:       opts,
		fs:         opts.FS,
		first:      1,
		segSizes:   map[uint64]int64{},
		stopTicker: make(chan struct{}),
		tickerDone: make(chan struct{}),
	}
	l.scond = sync.NewCond(&l.smu)
	next := uint64(1)
	if segs := ls.segs; len(segs) > 0 {
		last := segs[len(segs)-1]
		size, err := repairTail(opts.FS, dir, end)
		if err != nil {
			return nil, err
		}
		next = last
		if size > 0 {
			l.segSizes[last] = size
			next = last + 1
		}
		for _, idx := range segs[:len(segs)-1] {
			info, err := opts.FS.Stat(filepath.Join(dir, segmentFile.name(idx)))
			if err != nil {
				return nil, err
			}
			l.segSizes[idx] = info.Size()
		}
		l.first = segs[0]
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

// openSegment creates and syncs segment idx and makes it current.
// Caller holds mu or has exclusive access.
func (l *Log) openSegment(idx uint64) error {
	path := filepath.Join(l.dir, segmentFile.name(idx))
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
