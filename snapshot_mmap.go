package trajcover

// Mapped snapshot restore. OpenMappedFrozenSnapshot and friends map a
// TQSNAP03/TQSHRD02/TQLIVE01 file and alias the frozen column slices
// (node rects, upper-bound columns, bucket and entry slabs, trajectory
// points) directly onto the mapping via internal/mmap — a restore that
// costs one CRC pass plus the structural validation, no per-point work
// and no column copies (on little-endian hosts; elsewhere the views
// decode into heap and everything below still holds). The OS pages the
// columns in and out on demand, so one process can serve snapshots
// larger than RAM and restarts touch only the pages a query walks.
//
// Lifetime. Aliased slices are views into the mapping, so the mapping
// must outlive every object that can reach one. Each mapped file gets
// one token holding the mapping, and the restored tqtree.Frozen — the
// only object that keeps such views: its columns, and its trajectory
// table laid over the records where they sit — pins the token
// (Frozen.SetPin); the token's finalizer releases the mapping when the
// last such Frozen is dropped. Query entry points pin their engine with
// runtime.KeepAlive so the finalizer cannot fire mid-query. Delta
// trajectories are copied to the heap at open (the overlay is small), and
// a background rebuild copies the points it keeps into a fresh heap
// table, so rebuilds retire a mapping naturally: once every shard has
// been folded and the old epochs are gone, the token becomes unreachable
// and the file is unmapped.
//
// Integrity. The CRCs (trailer for TQSNAP03, header+frame for the
// containers) are verified once at open over the raw bytes, before any
// column is trusted; every cursor read is bounds-checked against the
// file length, and the decoded counts go through the same plausibility
// and structural validation as the streaming readers — a truncated or
// bit-flipped file is a loud ErrBadSnapshot at open, never a fault
// inside a query.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// mappedToken owns one reference to a file mapping on behalf of every
// index object restored from it. The finalizer releases the mapping
// when the last pinning object (Frozen or Trajectory) is collected.
type mappedToken struct {
	m *mmap.Mapping
}

func newMappedToken(m *mmap.Mapping) *mappedToken {
	t := &mappedToken{m: m}
	runtime.SetFinalizer(t, func(t *mappedToken) { t.m.Release() })
	return t
}

// drop abandons the token on an open-error path: the finalizer is
// cleared and the mapping released immediately.
func (t *mappedToken) drop() {
	runtime.SetFinalizer(t, nil)
	t.m.Release()
}

// mapCursor is the bounds-checked reader over a mapped payload. Every
// take is validated against the remaining length, so corrupt counts
// produce ErrBadSnapshot instead of an out-of-range slice.
type mapCursor struct {
	b   []byte
	off int
}

func (c *mapCursor) remaining() int { return len(c.b) - c.off }

func (c *mapCursor) take(n uint64) ([]byte, error) {
	if n > uint64(c.remaining()) {
		return nil, fmt.Errorf("%w: truncated payload (need %d bytes, have %d)", ErrBadSnapshot, n, c.remaining())
	}
	b := c.b[c.off : c.off+int(n) : c.off+int(n)]
	c.off += int(n)
	return b, nil
}

func (c *mapCursor) u64() (uint64, error) {
	b, err := c.take(8)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

func (c *mapCursor) u32() (uint32, error) {
	b, err := c.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

// rects / points / i32s / f64s / u64s / u32s alias (or decode) a column
// of n values off the cursor.

func (c *mapCursor) rects(n uint64) ([]geo.Rect, error) {
	b, err := c.take(n * 32)
	if err != nil {
		return nil, err
	}
	return mmap.Rects(b), nil
}

func (c *mapCursor) points(n uint64) ([]geo.Point, error) {
	b, err := c.take(n * 16)
	if err != nil {
		return nil, err
	}
	return mmap.Points(b), nil
}

func (c *mapCursor) i32s(n uint64) ([]int32, error) {
	b, err := c.take(n * 4)
	if err != nil {
		return nil, err
	}
	return mmap.I32s(b), nil
}

func (c *mapCursor) f64s(n uint64) ([]float64, error) {
	b, err := c.take(n * 8)
	if err != nil {
		return nil, err
	}
	return mmap.F64s(b), nil
}

func (c *mapCursor) u64s(n uint64) ([]uint64, error) {
	b, err := c.take(n * 8)
	if err != nil {
		return nil, err
	}
	return mmap.U64s(b), nil
}

func (c *mapCursor) u32s(n uint64) ([]uint32, error) {
	b, err := c.take(n * 4)
	if err != nil {
		return nil, err
	}
	return mmap.U32s(b), nil
}

func (c *mapCursor) skip(n uint64) error {
	_, err := c.take(n)
	return err
}

// readFrozenPayloadMapped is readFrozenPayload over a mapped cursor:
// identical header parse, plausibility checks, and structural validation
// (tqtree.FrozenFromColumns), but every column aliases the mapping and
// the trajectory table is laid over the records in place, serving each
// recorded length instead of recomputing it from the points — the open
// reads the record headers and never touches point data.
func readFrozenPayloadMapped(cur *mapCursor, pin *mappedToken) (*tqtree.Frozen, error) {
	var header [12]uint64
	for i := range header {
		v, err := cur.u64()
		if err != nil {
			return nil, err
		}
		header[i] = v
	}
	c := tqtree.FrozenColumns{
		Variant:  tqtree.Variant(header[0]),
		Ordering: tqtree.Ordering(header[1]),
		Beta:     int(header[2]),
		MaxDepth: int(header[3]),
		Bounds: geo.Rect{
			MinX: math.Float64frombits(header[4]),
			MinY: math.Float64frombits(header[5]),
			MaxX: math.Float64frombits(header[6]),
			MaxY: math.Float64frombits(header[7]),
		},
	}
	nn, nb, ne, nt := header[8], header[9], header[10], header[11]
	if c.Ordering != tqtree.ZOrder && c.Ordering != tqtree.Basic {
		return nil, fmt.Errorf("%w: invalid ordering %d", ErrBadSnapshot, header[1])
	}
	const maxCount = 1 << 31
	if nn == 0 || nn > maxCount || ne > maxCount || nb > ne || nt > ne || (ne > 0 && nt == 0) {
		return nil, fmt.Errorf("%w: implausible frozen counts (nodes %d, buckets %d, entries %d, trajectories %d)",
			ErrBadSnapshot, nn, nb, ne, nt)
	}
	if c.Ordering == tqtree.Basic && nb != 0 {
		return nil, fmt.Errorf("%w: basic ordering with %d buckets", ErrBadSnapshot, nb)
	}

	var err error
	if c.NodeRect, err = cur.rects(nn); err == nil {
		if c.ChildBase, err = cur.i32s(nn); err == nil {
			c.ChildCount, err = cur.i32s(nn)
		}
	}
	if err == nil {
		c.EntryOff, err = cur.i32s(nn + 1)
	}
	if err == nil {
		err = cur.skip(uint64(i32Pad(3*nn + 1)))
	}
	if err == nil {
		c.OwnUB, err = cur.f64s(nn * uint64(service.NumScenarios))
	}
	if err == nil {
		c.TreeUB, err = cur.f64s(nn * uint64(service.NumScenarios))
	}
	if err == nil && c.Ordering == tqtree.ZOrder {
		c.BucketOff, err = cur.i32s(nn + 1)
		if err == nil {
			c.BktEntryOff, err = cur.i32s(nb + 1)
		}
		if err == nil {
			err = cur.skip(uint64(i32Pad(nn + nb + 2)))
		}
		if err == nil {
			c.BktMinStart, err = cur.u64s(nb)
		}
		if err == nil {
			c.BktMaxStart, err = cur.u64s(nb)
		}
		if err == nil {
			c.BktStartMBR, err = cur.rects(nb)
		}
		if err == nil {
			c.BktEndMBR, err = cur.rects(nb)
		}
		if err == nil {
			c.BktFullMBR, err = cur.rects(nb)
		}
	}
	if err == nil {
		c.EntFirst, err = cur.points(ne)
	}
	if err == nil {
		c.EntLast, err = cur.points(ne)
	}
	if err == nil {
		c.EntMBR, err = cur.rects(ne)
	}
	if err == nil {
		c.EntTraj, err = cur.i32s(ne)
	}
	if err == nil {
		c.EntSeg, err = cur.i32s(ne)
	}
	if err != nil {
		return nil, err
	}

	tab, err := mappedTrajectoryTable(cur, nt)
	if err != nil {
		return nil, err
	}
	f, err := tqtree.FrozenFromColumns(c, tab)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	f.SetPin(pin)
	return f, nil
}

// minTrajRecordBytes is the smallest possible encoded trajectory
// record: the header and the two-point minimum. It bounds how many
// records the remaining bytes can hold.
const minTrajRecordBytes = trajRecordHeaderBytes + 2*16

// mappedTrajHeader reads the header of record i off the cursor, leaving
// it at the record's points.
func mappedTrajHeader(cur *mapCursor, i uint64) (trajRecordHeader, error) {
	b, err := cur.take(trajRecordHeaderBytes)
	if err != nil {
		return trajRecordHeader{}, fmt.Errorf("%w: truncated trajectory %d", ErrBadSnapshot, i)
	}
	return decodeTrajHeader(b, i)
}

// mappedTrajectoryTable lays a trajectory table over the next nt records
// where they sit: one walk of the headers collects the IDs and where each
// record's points start, and the records' whole byte range becomes the
// table's arena (trajectory.NewRecordTable) — two heap columns of nt
// values, no copy of a point. The recorded lengths are served as they are
// (integrity is the frame CRC, verified before parsing). The count is
// checked against the remaining bytes first, so a corrupt one cannot
// force a huge allocation.
func mappedTrajectoryTable(cur *mapCursor, nt uint64) (*trajectory.Table, error) {
	if nt > uint64(cur.remaining())/minTrajRecordBytes {
		return nil, fmt.Errorf("%w: trajectory count %d exceeds remaining bytes", ErrBadSnapshot, nt)
	}
	ids := make([]trajectory.ID, nt)
	first := make([]uint32, nt+1)
	start := cur.off
	for i := range ids {
		h, err := mappedTrajHeader(cur, uint64(i))
		if err != nil {
			return nil, err
		}
		slot := uint64(cur.off-start) / 16
		if slot > math.MaxUint32-(maxTrajPoints+trajectory.RecordHeaderPoints) {
			return nil, fmt.Errorf("%w: trajectory section too large to address", ErrBadSnapshot)
		}
		ids[i], first[i] = h.id, uint32(slot)
		if err := cur.skip(16 * uint64(h.npts)); err != nil {
			return nil, err
		}
	}
	first[nt] = uint32((cur.off-start)/16) + trajectory.RecordHeaderPoints
	tab, err := trajectory.NewRecordTable(ids, first, mmap.Points(cur.b[start:cur.off:cur.off]))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return tab, nil
}

// readMappedTrajectoryRecord decodes one frozen trajectory record off the
// cursor into a heap Trajectory — the delta overlay's records, copied so
// that nothing but the Frozen aliases the mapping — with the heap
// reader's cross-check of the cached length and MBR.
func readMappedTrajectoryRecord(cur *mapCursor, i uint64) (*trajectory.Trajectory, error) {
	h, err := mappedTrajHeader(cur, i)
	if err != nil {
		return nil, err
	}
	pts, err := cur.points(uint64(h.npts))
	if err != nil {
		return nil, err
	}
	t, err := trajectory.New(h.id, slices.Clone(pts))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := h.check(i, t.Length(), t.MBR()); err != nil {
		return nil, err
	}
	return t, nil
}

// OpenMappedFrozenSnapshot restores a FrozenIndex from a TQSNAP03 file
// by mapping it: the CRC is verified once, the columns alias the mapping
// (zero-copy on little-endian hosts), and the mapping is released when
// the last object restored from it is collected. Answers are
// byte-identical to ReadFrozenSnapshot of the same file.
func OpenMappedFrozenSnapshot(path string) (*FrozenIndex, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	tok := newMappedToken(m)
	x, err := openMappedFrozen(m.Data(), tok)
	if err != nil {
		tok.drop()
		return nil, err
	}
	return x, nil
}

func openMappedFrozen(data []byte, tok *mappedToken) (*FrozenIndex, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrBadSnapshot)
	}
	var magic [8]byte
	copy(magic[:], data)
	switch magic {
	case frozenMagic:
	case snapshotMagic:
		return nil, fmt.Errorf("%w: rebuild-format snapshot; use ReadSnapshot", ErrBadSnapshot)
	case shardedMagic, shardedFrozenMagic:
		return nil, fmt.Errorf("%w: sharded snapshot; use OpenMappedFrozenShardedSnapshot", ErrBadSnapshot)
	case liveMagic:
		return nil, fmt.Errorf("%w: live snapshot; use OpenMappedLiveSnapshot", ErrBadSnapshot)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	cur := &mapCursor{b: body[8:]}
	f, err := readFrozenPayloadMapped(cur, tok)
	if err != nil {
		return nil, err
	}
	if cur.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, cur.remaining())
	}
	return newFrozenIndex(query.NewFrozenEngine(f, nil)), nil
}

// mappedContainerHeader parses and CRC-checks the shared TQSHRD02 /
// TQLIVE01 container header, returning the shard count, partitioner
// kind, and a cursor positioned at the first frame.
func mappedContainerHeader(data []byte) (nShards uint64, kind string, cur *mapCursor, err error) {
	cur = &mapCursor{b: data, off: 8}
	nShards, err = cur.u64()
	if err != nil {
		return 0, "", nil, err
	}
	kindLen, err := cur.u32()
	if err != nil {
		return 0, "", nil, err
	}
	if kindLen > 256 {
		return 0, "", nil, fmt.Errorf("%w: implausible partitioner kind length %d", ErrBadSnapshot, kindLen)
	}
	kindBuf, err := cur.take(uint64(kindLen))
	if err != nil {
		return 0, "", nil, err
	}
	wantHdr := crc32.ChecksumIEEE(data[:cur.off])
	gotHdr, err := cur.u32()
	if err != nil {
		return 0, "", nil, fmt.Errorf("%w: missing header checksum", ErrBadSnapshot)
	}
	if gotHdr != wantHdr {
		return 0, "", nil, fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	pad, err := cur.take(pad8(uint64(kindLen)))
	if err != nil {
		return 0, "", nil, err
	}
	for _, b := range pad {
		if b != 0 {
			return 0, "", nil, fmt.Errorf("%w: nonzero padding", ErrBadSnapshot)
		}
	}
	const maxShards = 1 << 16
	if nShards == 0 || nShards > maxShards {
		return 0, "", nil, fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, nShards)
	}
	return nShards, string(kindBuf), cur, nil
}

// mappedFrame CRC-checks frame s and returns a cursor over its payload,
// advancing the container cursor past the frame.
func mappedFrame(cur *mapCursor, s uint64) (*mapCursor, error) {
	payloadLen, err := cur.u64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated frame %d", ErrBadSnapshot, s)
	}
	payload, err := cur.take(payloadLen)
	if err != nil {
		return nil, fmt.Errorf("frame %d: %w", s, err)
	}
	gotFrame, err := cur.u32()
	if err != nil {
		return nil, fmt.Errorf("%w: frame %d missing checksum", ErrBadSnapshot, s)
	}
	if crc32.ChecksumIEEE(payload) != gotFrame {
		return nil, fmt.Errorf("%w: frame %d checksum mismatch", ErrBadSnapshot, s)
	}
	pad, err := cur.take(4)
	if err != nil {
		return nil, fmt.Errorf("frame %d: %w", s, err)
	}
	for _, b := range pad {
		if b != 0 {
			return nil, fmt.Errorf("%w: frame %d nonzero padding", ErrBadSnapshot, s)
		}
	}
	return &mapCursor{b: payload}, nil
}

// OpenMappedFrozenShardedSnapshot restores a FrozenShardedIndex from a
// TQSHRD02 file by mapping it; every shard's columns alias one shared
// mapping. Answers are byte-identical to ReadFrozenShardedSnapshot.
func OpenMappedFrozenShardedSnapshot(path string) (*FrozenShardedIndex, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	tok := newMappedToken(m)
	x, err := openMappedFrozenSharded(m.Data(), tok)
	if err != nil {
		tok.drop()
		return nil, err
	}
	return x, nil
}

func openMappedFrozenSharded(data []byte, tok *mappedToken) (*FrozenShardedIndex, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrBadSnapshot)
	}
	var magic [8]byte
	copy(magic[:], data)
	switch magic {
	case shardedFrozenMagic:
	case shardedMagic:
		return nil, fmt.Errorf("%w: rebuild-format sharded snapshot; use ReadShardedSnapshot", ErrBadSnapshot)
	case snapshotMagic, frozenMagic:
		return nil, fmt.Errorf("%w: single-index snapshot; use ReadSnapshot or OpenMappedFrozenSnapshot", ErrBadSnapshot)
	case liveMagic:
		return nil, fmt.Errorf("%w: live snapshot; use OpenMappedLiveSnapshot", ErrBadSnapshot)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	nShards, kind, cur, err := mappedContainerHeader(data)
	if err != nil {
		return nil, err
	}
	engines := make([]*query.FrozenEngine, 0, nShards)
	bounds := geo.Rect{}
	for s := uint64(0); s < nShards; s++ {
		fcur, err := mappedFrame(cur, s)
		if err != nil {
			return nil, err
		}
		f, err := readFrozenPayloadMapped(fcur, tok)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
		if fcur.remaining() != 0 {
			return nil, fmt.Errorf("%w: frame %d has %d trailing bytes", ErrBadSnapshot, s, fcur.remaining())
		}
		if s == 0 {
			bounds = f.Bounds()
		}
		engines = append(engines, query.NewFrozenEngine(f, nil))
	}
	if cur.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last frame", ErrBadSnapshot, cur.remaining())
	}
	sf, err := shard.FrozenFromEngines(engines, bounds, kind)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newFrozenShardedIndex(sf), nil
}

// OpenMappedLiveSnapshot restores a live index from a TQLIVE01 file by
// mapping it: every shard's frozen base columns (and the delta
// trajectories' points) alias the mapping, while the restored index
// stays fully mutable — writes land in heap epochs, and background
// rebuilds fold mapped trajectories into heap bases, retiring the
// mapping once nothing references it. Answers are byte-identical to
// ReadLiveSnapshot of the same file.
func OpenMappedLiveSnapshot(path string, pol LivePolicy) (*LiveShardedIndex, error) {
	m, err := mmap.Open(path)
	if err != nil {
		return nil, err
	}
	tok := newMappedToken(m)
	x, err := openMappedLive(m.Data(), tok, pol)
	if err != nil {
		tok.drop()
		return nil, err
	}
	return x, nil
}

func openMappedLive(data []byte, tok *mappedToken, pol LivePolicy) (*LiveShardedIndex, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated snapshot", ErrBadSnapshot)
	}
	var magic [8]byte
	copy(magic[:], data)
	switch magic {
	case liveMagic:
	case snapshotMagic, frozenMagic:
		return nil, fmt.Errorf("%w: single-index snapshot; use ReadSnapshot or OpenMappedFrozenSnapshot", ErrBadSnapshot)
	case shardedMagic, shardedFrozenMagic:
		return nil, fmt.Errorf("%w: sharded snapshot; use ReadShardedSnapshot or OpenMappedFrozenShardedSnapshot", ErrBadSnapshot)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	nShards, kind, cur, err := mappedContainerHeader(data)
	if err != nil {
		return nil, err
	}
	eps := make([]*query.Epoch, 0, nShards)
	for s := uint64(0); s < nShards; s++ {
		fcur, err := mappedFrame(cur, s)
		if err != nil {
			return nil, err
		}
		ep, err := readLivePayloadMapped(fcur, tok)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
		if fcur.remaining() != 0 {
			return nil, fmt.Errorf("%w: frame %d has %d trailing bytes", ErrBadSnapshot, s, fcur.remaining())
		}
		eps = append(eps, ep)
	}
	if cur.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after last frame", ErrBadSnapshot, cur.remaining())
	}
	part, _ := shard.PartitionerOf(kind)
	l, err := shard.LiveFromEpochs(eps, part, pol.policy())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newLiveShardedIndex(l), nil
}

// readLivePayloadMapped is readLivePayload over a mapped cursor.
func readLivePayloadMapped(cur *mapCursor, tok *mappedToken) (*query.Epoch, error) {
	f, err := readFrozenPayloadMapped(cur, tok)
	if err != nil {
		return nil, err
	}
	nDead, err := cur.u64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated tombstones", ErrBadSnapshot)
	}
	if nDead > uint64(f.NumTrajectories()) {
		return nil, fmt.Errorf("%w: %d tombstones over %d base trajectories", ErrBadSnapshot, nDead, f.NumTrajectories())
	}
	deadIDs, err := cur.u32s(nDead)
	if err != nil {
		return nil, fmt.Errorf("%w: truncated tombstones", ErrBadSnapshot)
	}
	dead := make(map[trajectory.ID]struct{}, nDead)
	for _, id := range deadIDs {
		dead[trajectory.ID(id)] = struct{}{}
	}
	if uint64(len(dead)) != nDead {
		return nil, fmt.Errorf("%w: duplicate tombstone ids", ErrBadSnapshot)
	}
	if err := cur.skip(uint64(i32Pad(nDead))); err != nil {
		return nil, err
	}
	nDelta, err := cur.u64()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated delta", ErrBadSnapshot)
	}
	if nDelta > maxTrajectories {
		return nil, fmt.Errorf("%w: implausible delta count %d", ErrBadSnapshot, nDelta)
	}
	if nDelta > uint64(cur.remaining())/minTrajRecordBytes {
		return nil, fmt.Errorf("%w: delta count %d exceeds remaining bytes", ErrBadSnapshot, nDelta)
	}
	delta := make([]*trajectory.Trajectory, nDelta)
	for i := range delta {
		if delta[i], err = readMappedTrajectoryRecord(cur, uint64(i)); err != nil {
			return nil, err
		}
	}
	ep, err := query.NewEpoch(query.NewFrozenEngine(f, nil), delta, dead, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return ep, nil
}
