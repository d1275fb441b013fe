package trajcover

// Frozen snapshot persistence. Unlike TQSNAP02/TQSHRD01 — which store
// raw trajectories and rebuild the TQ-tree on restore — the frozen
// formats serialize the columnar index slices nearly verbatim:
//
//	TQSNAP03 — single frozen index: magic, frozen payload, CRC trailer.
//	TQSHRD02 — sharded frozen container: CRC'd shared header (shard
//	           count, partitioner kind), then one length-prefixed,
//	           individually CRC'd frozen payload per shard.
//
// A frozen payload is the column slices of tqtree.FrozenColumns in fixed
// order plus the trajectory table, one record per trajectory in ordinal
// order (entry-slab first appearance, so entTraj values resolve by
// position) — row-shaped on disk, column-shaped (trajectory.Table) in
// memory. Restoring is a bulk read, the
// CRC check, and the structural bounds validation in
// tqtree.FrozenFromColumns — no tree rebuild, no sorting — which is what
// makes frozen restore several times faster than the rebuild formats.
//
// Every multi-byte column starts at an offset that is a multiple of 8
// from the payload start (zero pad bytes follow the int32 column groups
// and the container headers/frames where needed), and each trajectory
// record carries its precomputed length and MBR. Both exist for the
// mapped-restore path (snapshot_mmap.go): 8-alignment lets the reader
// alias float64/uint64/Rect/Point columns directly onto a page-aligned
// file mapping, and the cached length/MBR make a mapped open O(columns)
// instead of O(points). Pad bytes are covered by the CRCs like any other
// payload byte. This is an internal revision of the TQSNAP03/TQSHRD02
// (and TQLIVE01) encodings; streams written by earlier builds are not
// readable, which these formats never promised.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

var (
	frozenMagic        = [8]byte{'T', 'Q', 'S', 'N', 'A', 'P', '0', '3'}
	shardedFrozenMagic = [8]byte{'T', 'Q', 'S', 'H', 'R', 'D', '0', '2'}
)

// colWriter batches little-endian column writes through one buffer so a
// whole payload costs a handful of Write calls per column instead of one
// per value.
type colWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newColWriter(w io.Writer) *colWriter {
	return &colWriter{w: w, buf: make([]byte, 0, 1<<16)}
}

func (cw *colWriter) flushIfFull() {
	if len(cw.buf) >= (1<<16)-16 {
		cw.flush()
	}
}

func (cw *colWriter) flush() {
	if cw.err == nil && len(cw.buf) > 0 {
		_, cw.err = cw.w.Write(cw.buf)
	}
	cw.buf = cw.buf[:0]
}

func (cw *colWriter) u64(v uint64) {
	cw.buf = binary.LittleEndian.AppendUint64(cw.buf, v)
	cw.flushIfFull()
}

func (cw *colWriter) u32(v uint32) {
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf, v)
	cw.flushIfFull()
}

func (cw *colWriter) u64s(vs []uint64) {
	for _, v := range vs {
		cw.u64(v)
	}
}

func (cw *colWriter) f64s(vs []float64) {
	for _, v := range vs {
		cw.u64(math.Float64bits(v))
	}
}

func (cw *colWriter) i32s(vs []int32) {
	for _, v := range vs {
		cw.u32(uint32(v))
	}
}

func (cw *colWriter) rects(vs []geo.Rect) {
	for _, r := range vs {
		cw.u64(math.Float64bits(r.MinX))
		cw.u64(math.Float64bits(r.MinY))
		cw.u64(math.Float64bits(r.MaxX))
		cw.u64(math.Float64bits(r.MaxY))
	}
}

func (cw *colWriter) points(vs []geo.Point) {
	for _, p := range vs {
		cw.u64(math.Float64bits(p.X))
		cw.u64(math.Float64bits(p.Y))
	}
}

// pad writes n zero bytes (n < 8; realigns the stream to 8 bytes after
// an int32 column group).
func (cw *colWriter) pad(n int) {
	for i := 0; i < n; i++ {
		cw.buf = append(cw.buf, 0)
	}
	cw.flushIfFull()
}

// pad8 returns the zero bytes needed to realign a stream to 8 after
// size bytes.
func pad8(size uint64) uint64 { return (8 - size%8) % 8 }

// i32Pad returns the pad after an n-value int32 column group.
func i32Pad(n uint64) int { return int(pad8(4 * n)) }

// readZeroPad consumes n container pad bytes and requires them to be
// zero. Container pads sit outside the header/frame CRCs (they realign
// the stream after a CRC), so this explicit check is what keeps a
// flipped pad bit a loud error instead of silently accepted input.
func readZeroPad(r io.Reader, n uint64) error {
	if n == 0 {
		return nil
	}
	var buf [8]byte
	b := buf[:n]
	if _, err := io.ReadFull(r, b); err != nil {
		return fmt.Errorf("%w: truncated padding", ErrBadSnapshot)
	}
	for _, c := range b {
		if c != 0 {
			return fmt.Errorf("%w: nonzero padding", ErrBadSnapshot)
		}
	}
	return nil
}

// colReader is the bulk little-endian reader. Columns are grown by
// append in bounded chunks, so memory consumption tracks the bytes
// actually present in the stream — a corrupt count fails with a
// truncation error instead of one absurd allocation.
type colReader struct {
	r   io.Reader
	buf []byte
}

func newColReader(r io.Reader) *colReader {
	return &colReader{r: r, buf: make([]byte, 1<<16)}
}

// chunk reads exactly n*width bytes in buffer-sized pieces, invoking fn
// on each piece.
func (cr *colReader) chunk(n, width int, fn func(b []byte)) error {
	per := len(cr.buf) / width
	for n > 0 {
		c := n
		if c > per {
			c = per
		}
		b := cr.buf[:c*width]
		if _, err := io.ReadFull(cr.r, b); err != nil {
			return fmt.Errorf("%w: truncated column (%v)", ErrBadSnapshot, err)
		}
		fn(b)
		n -= c
	}
	return nil
}

func (cr *colReader) u64(dst *uint64) error {
	b := cr.buf[:8]
	if _, err := io.ReadFull(cr.r, b); err != nil {
		return fmt.Errorf("%w: truncated header (%v)", ErrBadSnapshot, err)
	}
	*dst = binary.LittleEndian.Uint64(b)
	return nil
}

func (cr *colReader) u64s(n int) ([]uint64, error) {
	out := make([]uint64, 0, minInt(n, 1<<16))
	err := cr.chunk(n, 8, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			out = append(out, binary.LittleEndian.Uint64(b[i:]))
		}
	})
	return out, err
}

func (cr *colReader) f64s(n int) ([]float64, error) {
	out := make([]float64, 0, minInt(n, 1<<16))
	err := cr.chunk(n, 8, func(b []byte) {
		for i := 0; i < len(b); i += 8 {
			out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(b[i:])))
		}
	})
	return out, err
}

func (cr *colReader) i32s(n int) ([]int32, error) {
	out := make([]int32, 0, minInt(n, 1<<16))
	err := cr.chunk(n, 4, func(b []byte) {
		for i := 0; i < len(b); i += 4 {
			out = append(out, int32(binary.LittleEndian.Uint32(b[i:])))
		}
	})
	return out, err
}

func (cr *colReader) rects(n int) ([]geo.Rect, error) {
	out := make([]geo.Rect, 0, minInt(n, 1<<14))
	err := cr.chunk(n, 32, func(b []byte) {
		for i := 0; i < len(b); i += 32 {
			out = append(out, geo.Rect{
				MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[i:])),
				MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[i+8:])),
				MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[i+16:])),
				MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[i+24:])),
			})
		}
	})
	return out, err
}

func (cr *colReader) pointsInto(dst []geo.Point, n int) ([]geo.Point, error) {
	err := cr.chunk(n, 16, func(b []byte) {
		for i := 0; i < len(b); i += 16 {
			dst = append(dst, geo.Point{
				X: math.Float64frombits(binary.LittleEndian.Uint64(b[i:])),
				Y: math.Float64frombits(binary.LittleEndian.Uint64(b[i+8:])),
			})
		}
	})
	return dst, err
}

func (cr *colReader) points(n int) ([]geo.Point, error) {
	return cr.pointsInto(make([]geo.Point, 0, minInt(n, 1<<15)), n)
}

// skip consumes n pad bytes (their value is ignored; the CRC covers
// them).
func (cr *colReader) skip(n int) error {
	if n == 0 {
		return nil
	}
	b := cr.buf[:n]
	if _, err := io.ReadFull(cr.r, b); err != nil {
		return fmt.Errorf("%w: truncated padding (%v)", ErrBadSnapshot, err)
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// frozenPayloadSize returns the exact encoded byte size of
// writeFrozenPayload's output — used to length-prefix TQSHRD02 frames
// without buffering them.
func frozenPayloadSize(f *tqtree.Frozen) uint64 {
	c := f.Columns()
	nn := uint64(len(c.NodeRect))
	nb := uint64(len(c.BktMinStart))
	ne := uint64(len(c.EntFirst))
	size := uint64(12 * 8)                            // header
	size += nn * 32                                   // node rects
	size += nn * 4 * 2                                // childBase, childCount
	size += (nn + 1) * 4                              // entryOff
	size += pad8(4 * (3*nn + 1))                      // realign after the int32 group
	size += nn * 8 * 2 * uint64(service.NumScenarios) // ownUB + treeUB
	if c.Ordering == tqtree.ZOrder {
		size += (nn + 1) * 4            // bucketOff
		size += (nb + 1) * 4            // bktEntryOff
		size += pad8(4 * (nn + nb + 2)) // realign after the int32 group
		size += nb * 8 * 2              // bktMinStart, bktMaxStart
		size += nb * 32 * 3             // bucket MBRs
	}
	size += ne * 16 * 2 // entFirst, entLast
	size += ne * 32     // entMBR
	size += ne * 4 * 2  // entTraj, entSeg (8·ne bytes — already 8-aligned)
	tab := f.Table()
	size += trajRecordHeaderBytes*uint64(tab.Len()) + 16*uint64(tab.TotalPoints())
	return size
}

// trajRecordHeaderBytes is the fixed part of one frozen trajectory
// record: u32 id, u32 point count, f64 length, Rect MBR; the points
// follow. 48+16n bytes in all — a multiple of 16, so records never break
// column alignment and a run of them reads as one []geo.Point
// (trajectory.RecordHeaderPoints). (The rebuild formats keep the smaller
// trajectorySize record; only the frozen/live payloads cache length and
// MBR.)
const trajRecordHeaderBytes = 4 + 4 + 8 + 32

// frozenTrajectorySize is the encoded size of one frozen trajectory
// record.
func frozenTrajectorySize(t *trajectory.Trajectory) uint64 {
	return trajRecordHeaderBytes + 16*uint64(t.Len())
}

// trajRecord writes one frozen trajectory record.
func (cw *colWriter) trajRecord(id trajectory.ID, pts []geo.Point, length float64, mbr geo.Rect) {
	cw.u32(uint32(id))
	cw.u32(uint32(len(pts)))
	cw.u64(math.Float64bits(length))
	cw.rects([]geo.Rect{mbr})
	cw.points(pts)
}

// trajRecordHeader is the decoded fixed part of a trajectory record.
type trajRecordHeader struct {
	id      trajectory.ID
	npts    uint32
	lenBits uint64
	mbr     geo.Rect
}

// maxTrajPoints bounds the point count a reader believes of one record.
const maxTrajPoints = 1 << 24

// decodeTrajHeader decodes and range-checks the header of record i from
// its trajRecordHeaderBytes bytes — shared by the streaming and the
// mapped readers, so both believe exactly the same records.
func decodeTrajHeader(b []byte, i uint64) (trajRecordHeader, error) {
	h := trajRecordHeader{
		id:      trajectory.ID(binary.LittleEndian.Uint32(b)),
		npts:    binary.LittleEndian.Uint32(b[4:]),
		lenBits: binary.LittleEndian.Uint64(b[8:]),
		mbr: geo.Rect{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(b[16:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(b[24:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(b[32:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(b[40:])),
		},
	}
	if h.npts < 2 || h.npts > maxTrajPoints {
		return h, fmt.Errorf("%w: trajectory %d has %d points", ErrBadSnapshot, i, h.npts)
	}
	return h, nil
}

// trajHeader reads the header of record i off the stream.
func (cr *colReader) trajHeader(i uint64) (trajRecordHeader, error) {
	b := cr.buf[:trajRecordHeaderBytes]
	if _, err := io.ReadFull(cr.r, b); err != nil {
		return trajRecordHeader{}, fmt.Errorf("%w: truncated trajectory %d", ErrBadSnapshot, i)
	}
	return decodeTrajHeader(b, i)
}

// check compares the header's cached length and MBR with the values
// recomputed from the record's points. The mapped reader serves the
// cached length without touching the points; the heap readers recompute
// (same arithmetic, so bit-equal) and cross-check here, which catches a
// writer bug or a CRC-fixed-up forgery before it can diverge the two
// restore paths.
func (h trajRecordHeader) check(i uint64, length float64, mbr geo.Rect) error {
	if math.Float64bits(length) != h.lenBits || mbr != h.mbr {
		return fmt.Errorf("%w: trajectory %d cached length/MBR disagree with points", ErrBadSnapshot, i)
	}
	return nil
}

// readFrozenTrajectoryRecord decodes one frozen trajectory record into a
// heap Trajectory — the delta overlay's records.
func readFrozenTrajectoryRecord(cr *colReader, i uint64) (*trajectory.Trajectory, error) {
	h, err := cr.trajHeader(i)
	if err != nil {
		return nil, err
	}
	pts, err := cr.pointsInto(make([]geo.Point, 0, minInt(int(h.npts), 1<<12)), int(h.npts))
	if err != nil {
		return nil, err
	}
	t, err := trajectory.New(h.id, pts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if err := h.check(i, t.Length(), t.MBR()); err != nil {
		return nil, err
	}
	return t, nil
}

// readTrajectoryTable decodes nt trajectory records straight into the
// columns of a table: the points stream into its arena, so a restore
// allocates a handful of columns instead of two objects per record.
// Duplicate IDs are rejected.
func readTrajectoryTable(cr *colReader, nt uint64) (*trajectory.Table, error) {
	hint := minInt(int(nt), 1<<16)
	tb := trajectory.NewTableBuilder(hint, 2*hint)
	for i := uint64(0); i < nt; i++ {
		h, err := cr.trajHeader(i)
		if err != nil {
			return nil, err
		}
		pts, length, err := tb.AppendRead(h.id, int(h.npts), cr.pointsInto)
		if err != nil {
			return nil, err
		}
		if err := h.check(i, length, geo.RectOf(pts)); err != nil {
			return nil, err
		}
	}
	tab, err := tb.Build()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return tab, nil
}

// writeFrozenPayload encodes the frozen index: a fixed header, the column
// slices in fixed order, then the trajectory table.
func writeFrozenPayload(w io.Writer, f *tqtree.Frozen) error {
	c := f.Columns()
	cw := newColWriter(w)
	cw.u64(uint64(c.Variant))
	cw.u64(uint64(c.Ordering))
	cw.u64(uint64(c.Beta))
	cw.u64(uint64(c.MaxDepth))
	cw.u64(math.Float64bits(c.Bounds.MinX))
	cw.u64(math.Float64bits(c.Bounds.MinY))
	cw.u64(math.Float64bits(c.Bounds.MaxX))
	cw.u64(math.Float64bits(c.Bounds.MaxY))
	cw.u64(uint64(len(c.NodeRect)))
	cw.u64(uint64(len(c.BktMinStart)))
	cw.u64(uint64(len(c.EntFirst)))
	tab := f.Table()
	cw.u64(uint64(tab.Len()))

	nn := uint64(len(c.NodeRect))
	nb := uint64(len(c.BktMinStart))
	cw.rects(c.NodeRect)
	cw.i32s(c.ChildBase)
	cw.i32s(c.ChildCount)
	cw.i32s(c.EntryOff)
	cw.pad(i32Pad(3*nn + 1))
	cw.f64s(c.OwnUB)
	cw.f64s(c.TreeUB)
	if c.Ordering == tqtree.ZOrder {
		cw.i32s(c.BucketOff)
		cw.i32s(c.BktEntryOff)
		cw.pad(i32Pad(nn + nb + 2))
		cw.u64s(c.BktMinStart)
		cw.u64s(c.BktMaxStart)
		cw.rects(c.BktStartMBR)
		cw.rects(c.BktEndMBR)
		cw.rects(c.BktFullMBR)
	}
	cw.points(c.EntFirst)
	cw.points(c.EntLast)
	cw.rects(c.EntMBR)
	cw.i32s(c.EntTraj)
	cw.i32s(c.EntSeg)

	for i := int32(0); int(i) < tab.Len(); i++ {
		// The table keeps no bounding boxes; RectOf is the arithmetic that
		// produced the ones recorded before, so the bytes are the same.
		pts := tab.Points(i)
		cw.trajRecord(tab.ID(i), pts, tab.Length(i), geo.RectOf(pts))
	}
	cw.flush()
	return cw.err
}

// readFrozenPayload decodes a frozen payload and reassembles the index
// (structural validation included), trajectory table and all.
func readFrozenPayload(r io.Reader) (*tqtree.Frozen, error) {
	cr := newColReader(r)
	var header [12]uint64
	for i := range header {
		if err := cr.u64(&header[i]); err != nil {
			return nil, err
		}
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
	// Structural plausibility before any large read: every bucket holds
	// at least one entry and every indexed trajectory contributes at
	// least one entry, so corrupt counts fail here.
	const maxCount = 1 << 31
	if nn == 0 || nn > maxCount || ne > maxCount || nb > ne || nt > ne || (ne > 0 && nt == 0) {
		return nil, fmt.Errorf("%w: implausible frozen counts (nodes %d, buckets %d, entries %d, trajectories %d)",
			ErrBadSnapshot, nn, nb, ne, nt)
	}
	if c.Ordering == tqtree.Basic && nb != 0 {
		return nil, fmt.Errorf("%w: basic ordering with %d buckets", ErrBadSnapshot, nb)
	}

	var err error
	if c.NodeRect, err = cr.rects(int(nn)); err == nil {
		if c.ChildBase, err = cr.i32s(int(nn)); err == nil {
			c.ChildCount, err = cr.i32s(int(nn))
		}
	}
	if err == nil {
		c.EntryOff, err = cr.i32s(int(nn) + 1)
	}
	if err == nil {
		err = cr.skip(i32Pad(3*nn + 1))
	}
	if err == nil {
		c.OwnUB, err = cr.f64s(int(nn) * service.NumScenarios)
	}
	if err == nil {
		c.TreeUB, err = cr.f64s(int(nn) * service.NumScenarios)
	}
	if err == nil && c.Ordering == tqtree.ZOrder {
		c.BucketOff, err = cr.i32s(int(nn) + 1)
		if err == nil {
			c.BktEntryOff, err = cr.i32s(int(nb) + 1)
		}
		if err == nil {
			err = cr.skip(i32Pad(nn + nb + 2))
		}
		if err == nil {
			c.BktMinStart, err = cr.u64s(int(nb))
		}
		if err == nil {
			c.BktMaxStart, err = cr.u64s(int(nb))
		}
		if err == nil {
			c.BktStartMBR, err = cr.rects(int(nb))
		}
		if err == nil {
			c.BktEndMBR, err = cr.rects(int(nb))
		}
		if err == nil {
			c.BktFullMBR, err = cr.rects(int(nb))
		}
	}
	if err == nil {
		c.EntFirst, err = cr.points(int(ne))
	}
	if err == nil {
		c.EntLast, err = cr.points(int(ne))
	}
	if err == nil {
		c.EntMBR, err = cr.rects(int(ne))
	}
	if err == nil {
		c.EntTraj, err = cr.i32s(int(ne))
	}
	if err == nil {
		c.EntSeg, err = cr.i32s(int(ne))
	}
	if err != nil {
		return nil, err
	}

	tab, err := readTrajectoryTable(cr, nt)
	if err != nil {
		return nil, err
	}
	f, err := tqtree.FrozenFromColumns(c, tab)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return f, nil
}

// WriteSnapshot serializes the frozen index as a TQSNAP03 stream: the
// columnar payload framed by a magic header and a CRC32 trailer.
func (x *FrozenIndex) WriteSnapshot(w io.Writer) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(frozenMagic[:]); err != nil {
		return err
	}
	if err := writeFrozenPayload(mw, x.engine.Frozen()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ReadFrozenSnapshot restores a FrozenIndex written by
// (*FrozenIndex).WriteSnapshot. The columns are bulk-read, checksummed,
// and bounds-checked — no tree rebuild. Rebuild-format and sharded
// streams are detected and rejected with a pointer to the right reader.
func ReadFrozenSnapshot(r io.Reader) (*FrozenIndex, error) {
	base := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	br := &hashReader{r: base, crc: crc}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	switch magic {
	case frozenMagic:
	case snapshotMagic:
		return nil, fmt.Errorf("%w: rebuild-format snapshot; use ReadSnapshot", ErrBadSnapshot)
	case shardedMagic, shardedFrozenMagic:
		return nil, fmt.Errorf("%w: sharded snapshot; use ReadShardedSnapshot or ReadFrozenShardedSnapshot", ErrBadSnapshot)
	case liveMagic:
		return nil, fmt.Errorf("%w: live snapshot; use ReadLiveSnapshot", ErrBadSnapshot)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	f, err := readFrozenPayload(br)
	if err != nil {
		return nil, err
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(base, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrBadSnapshot)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	return newFrozenIndex(query.NewFrozenEngine(f, nil)), nil
}

// WriteSnapshot serializes the frozen sharded index as a TQSHRD02
// container: a CRC'd shared header (shard count, partitioner kind), then
// one length-prefixed, individually CRC'd frozen payload per shard.
// Per-frame checksums localize corruption to one shard and the length
// prefixes let tooling skip frames without decoding them.
func (x *FrozenShardedIndex) WriteSnapshot(w io.Writer) error {
	kind := x.s.PartitionerKind()

	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(shardedFrozenMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint64(x.s.NumShards())); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint32(len(kind))); err != nil {
		return err
	}
	if _, err := io.WriteString(mw, kind); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	// Realign so every frame's payload starts 8-aligned in the file (the
	// header is 24+len(kind) bytes, each frame 8+payload+4+4): the mapped
	// reader aliases columns at file offsets.
	if _, err := w.Write(make([]byte, pad8(uint64(len(kind))))); err != nil {
		return err
	}

	for i := 0; i < x.s.NumShards(); i++ {
		f := x.s.Engine(i).Frozen()
		if err := binary.Write(w, binary.LittleEndian, frozenPayloadSize(f)); err != nil {
			return err
		}
		fcrc := crc32.NewIEEE()
		if err := writeFrozenPayload(io.MultiWriter(w, fcrc), f); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, fcrc.Sum32()); err != nil {
			return err
		}
		if _, err := w.Write([]byte{0, 0, 0, 0}); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrozenShardedSnapshot restores a FrozenShardedIndex written by
// (*FrozenShardedIndex).WriteSnapshot, bulk-reading each shard's columns
// from its own frame.
func ReadFrozenShardedSnapshot(r io.Reader) (*FrozenShardedIndex, error) {
	base := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	br := &hashReader{r: base, crc: crc}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	switch magic {
	case shardedFrozenMagic:
	case shardedMagic:
		return nil, fmt.Errorf("%w: rebuild-format sharded snapshot; use ReadShardedSnapshot", ErrBadSnapshot)
	case snapshotMagic, frozenMagic:
		return nil, fmt.Errorf("%w: single-index snapshot; use ReadSnapshot or ReadFrozenSnapshot", ErrBadSnapshot)
	case liveMagic:
		return nil, fmt.Errorf("%w: live snapshot; use ReadLiveSnapshot", ErrBadSnapshot)
	default:
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	var nShards uint64
	if err := binary.Read(br, binary.LittleEndian, &nShards); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
	}
	var kindLen uint32
	if err := binary.Read(br, binary.LittleEndian, &kindLen); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
	}
	if kindLen > 256 {
		return nil, fmt.Errorf("%w: implausible partitioner kind length %d", ErrBadSnapshot, kindLen)
	}
	kindBuf := make([]byte, kindLen)
	if _, err := io.ReadFull(br, kindBuf); err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
	}
	wantHdr := crc.Sum32()
	var gotHdr uint32
	if err := binary.Read(base, binary.LittleEndian, &gotHdr); err != nil {
		return nil, fmt.Errorf("%w: missing header checksum", ErrBadSnapshot)
	}
	if gotHdr != wantHdr {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	if err := readZeroPad(base, pad8(uint64(kindLen))); err != nil {
		return nil, err
	}

	const maxShards = 1 << 16
	if nShards == 0 || nShards > maxShards {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, nShards)
	}
	engines := make([]*query.FrozenEngine, 0, nShards)
	bounds := geo.Rect{}
	for s := uint64(0); s < nShards; s++ {
		var payloadLen uint64
		if err := binary.Read(base, binary.LittleEndian, &payloadLen); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d", ErrBadSnapshot, s)
		}
		fcrc := crc32.NewIEEE()
		fr := &hashReader{r: io.LimitReader(base, int64(payloadLen)), crc: fcrc}
		f, err := readFrozenPayload(fr)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
		// The frame must be fully consumed: leftover bytes mean the
		// length prefix and the payload disagree.
		if n, _ := io.Copy(io.Discard, fr); n != 0 {
			return nil, fmt.Errorf("%w: frame %d has %d trailing bytes", ErrBadSnapshot, s, n)
		}
		wantFrame := fcrc.Sum32()
		var gotFrame uint32
		if err := binary.Read(base, binary.LittleEndian, &gotFrame); err != nil {
			return nil, fmt.Errorf("%w: frame %d missing checksum", ErrBadSnapshot, s)
		}
		if gotFrame != wantFrame {
			return nil, fmt.Errorf("%w: frame %d checksum mismatch", ErrBadSnapshot, s)
		}
		if err := readZeroPad(base, 4); err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
		if s == 0 {
			bounds = f.Bounds()
		}
		engines = append(engines, query.NewFrozenEngine(f, nil))
	}
	sf, err := shard.FrozenFromEngines(engines, bounds, string(kindBuf))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newFrozenShardedIndex(sf), nil
}
