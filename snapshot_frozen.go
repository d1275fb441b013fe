package trajcover

// The frozen payload: the one column encoding every snapshot format
// carries (snapshot.go lists the framings), its writer, and its one
// reader.
//
// A frozen payload is the column slices of tqtree.FrozenColumns in fixed
// order plus the trajectory table, one record per trajectory in ordinal
// order (entry-slab first appearance, so entTraj values resolve by
// position) — row-shaped on disk, column-shaped (trajectory.Table) in
// memory. All five entry columns are recorded for every variant; the ones
// a variant does not hold in memory (tqtree.Frozen's entry slab) are
// derived as they are written and, on restore, viewed in place and
// checked against the same derivation. Restoring is the CRC check, a copy
// or an aliasing of each held column, and the structural bounds
// validation in tqtree.FrozenFromColumns — no tree rebuild, no sorting.
//
// Every multi-byte column starts at an offset that is a multiple of 8
// from the payload start (zero pad bytes follow the int32 column groups
// and the container headers/frames where needed), and each trajectory
// record carries its precomputed length and MBR. Both exist for the
// mapped open (snapshot_mmap.go): 8-alignment lets the reader alias
// float64/uint64/Rect/Point columns directly onto a page-aligned file
// mapping, and the cached length makes a mapped open O(columns) instead
// of O(points). Pad bytes are covered by the CRCs like any other payload
// byte.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
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

func (cw *colWriter) rect(r geo.Rect) {
	cw.u64(math.Float64bits(r.MinX))
	cw.u64(math.Float64bits(r.MinY))
	cw.u64(math.Float64bits(r.MaxX))
	cw.u64(math.Float64bits(r.MaxY))
}

func (cw *colWriter) rects(vs []geo.Rect) {
	for _, r := range vs {
		cw.rect(r)
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
// (trajectory.RecordHeaderPoints).
const trajRecordHeaderBytes = 4 + 4 + 8 + 32

// minTrajRecordBytes is the smallest possible encoded trajectory
// record: the header and the two-point minimum. It bounds how many
// records the remaining bytes can hold.
const minTrajRecordBytes = trajRecordHeaderBytes + 2*16

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
	cw.rect(mbr)
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
// its trajRecordHeaderBytes bytes.
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

// trajRecord takes record i off the cursor: its range-checked header and
// its points, viewed where they sit (valid as long as the cursor's bytes).
func (c *cursor) trajRecord(i uint64) (trajRecordHeader, []geo.Point) {
	b := c.take(trajRecordHeaderBytes)
	if c.err != nil {
		return trajRecordHeader{}, nil
	}
	h, err := decodeTrajHeader(b, i)
	if err != nil {
		c.err = err
		return h, nil
	}
	return h, mmap.Points(c.take(16 * uint64(h.npts)))
}

// check compares the header's cached length and MBR with the values
// recomputed from the record's points (same arithmetic, so bit-equal),
// which catches a writer bug or a CRC-fixed-up forgery. Whatever is
// copied to the heap is checked; a base table aliased under a pin is not
// — it serves the cached length without touching the points.
func (h trajRecordHeader) check(i uint64, length float64, mbr geo.Rect) error {
	if math.Float64bits(length) != h.lenBits || mbr != h.mbr {
		return fmt.Errorf("%w: trajectory %d cached length/MBR disagree with points", ErrBadSnapshot, i)
	}
	return nil
}

// readTrajectoryTable turns the next nt records into the base's table.
// The count is checked against the remaining bytes first, so a corrupt
// one cannot force a huge allocation. Duplicate IDs are rejected.
func readTrajectoryTable(c *cursor, nt uint64) (*trajectory.Table, error) {
	if nt > uint64(c.remaining())/minTrajRecordBytes {
		return nil, fmt.Errorf("%w: trajectory count %d exceeds remaining bytes", ErrBadSnapshot, nt)
	}
	if c.pin == nil {
		// Nobody owns the bytes: the points are copied into one arena
		// (sized by the bytes present; Build trims it) and each record's
		// cached geometry checked against them.
		tb := trajectory.NewTableBuilder(int(nt), (c.remaining()-int(nt)*trajRecordHeaderBytes)/16)
		for i := uint64(0); i < nt; i++ {
			h, pts := c.trajRecord(i)
			if c.err != nil {
				return nil, c.err
			}
			length, err := tb.AppendPoints(h.id, pts)
			if err == nil {
				err = h.check(i, length, geo.RectOf(pts))
			}
			if err != nil {
				return nil, badSnapshot(err)
			}
		}
		tab, err := tb.Build()
		return tab, badSnapshot(err)
	}
	// Under a pin the table is laid over the records where they sit: one
	// walk of the headers collects the IDs and where each record's points
	// start, and the records' whole byte range becomes the table's arena
	// (trajectory.NewRecordTable) — two heap columns of nt values, no
	// copy of a point, the recorded lengths served as they are.
	ids := make([]trajectory.ID, nt)
	first := make([]uint32, nt+1)
	start := c.off
	for i := range ids {
		slot := uint64(c.off-start)/16 + trajectory.RecordHeaderPoints
		if slot > math.MaxUint32-(maxTrajPoints+trajectory.RecordHeaderPoints) {
			return nil, fmt.Errorf("%w: trajectory section too large to address", ErrBadSnapshot)
		}
		h, _ := c.trajRecord(uint64(i))
		if c.err != nil {
			return nil, c.err
		}
		ids[i], first[i] = h.id, uint32(slot)
	}
	first[nt] = uint32((c.off-start)/16) + trajectory.RecordHeaderPoints
	tab, err := trajectory.NewRecordTable(ids, first, mmap.Points(c.b[start:c.off:c.off]))
	return tab, badSnapshot(err)
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
	// Every variant records all five entry columns; those the base does
	// not hold are derived entry by entry.
	ne := int32(len(c.EntFirst))
	for e := int32(0); e < ne; e++ {
		cw.rect(f.EntryMBR(e))
	}
	for e := int32(0); e < ne; e++ {
		cw.u32(uint32(f.EntryOrdinal(e)))
	}
	for e := int32(0); e < ne; e++ {
		cw.u32(uint32(f.EntrySegment(e)))
	}

	for i := int32(0); int(i) < tab.Len(); i++ {
		// The table keeps no bounding boxes; RectOf is the arithmetic that
		// produced the ones recorded before, so the bytes are the same.
		pts := tab.Points(i)
		cw.trajRecord(tab.ID(i), pts, tab.Length(i), geo.RectOf(pts))
	}
	cw.flush()
	return cw.err
}

// readFrozenPayload decodes a frozen payload off the cursor and
// reassembles the index (structural validation included), trajectory
// table and all. Under a pin the columns alias the cursor's bytes and the
// index pins their owner.
func readFrozenPayload(cur *cursor) (*tqtree.Frozen, error) {
	var header [12]uint64
	for i := range header {
		header[i] = cur.u64()
	}
	if cur.err != nil {
		return nil, cur.err
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
	// Structural plausibility before any column: every bucket holds at
	// least one entry and every indexed trajectory contributes at least
	// one entry, so corrupt counts fail here.
	const maxCount = 1 << 31
	if nn == 0 || nn > maxCount || ne > maxCount || nb > ne || nt > ne || (ne > 0 && nt == 0) {
		return nil, fmt.Errorf("%w: implausible frozen counts (nodes %d, buckets %d, entries %d, trajectories %d)",
			ErrBadSnapshot, nn, nb, ne, nt)
	}
	if c.Ordering == tqtree.Basic && nb != 0 {
		return nil, fmt.Errorf("%w: basic ordering with %d buckets", ErrBadSnapshot, nb)
	}

	c.NodeRect = cur.rects(nn)
	c.ChildBase = cur.i32s(nn)
	c.ChildCount = cur.i32s(nn)
	c.EntryOff = cur.i32s(nn + 1)
	cur.take(pad8(4 * (3*nn + 1)))
	c.OwnUB = cur.f64s(nn * uint64(service.NumScenarios))
	c.TreeUB = cur.f64s(nn * uint64(service.NumScenarios))
	if c.Ordering == tqtree.ZOrder {
		c.BucketOff = cur.i32s(nn + 1)
		c.BktEntryOff = cur.i32s(nb + 1)
		cur.take(pad8(4 * (nn + nb + 2)))
		c.BktMinStart = cur.u64s(nb)
		c.BktMaxStart = cur.u64s(nb)
		c.BktStartMBR = cur.rects(nb)
		c.BktEndMBR = cur.rects(nb)
		c.BktFullMBR = cur.rects(nb)
	}
	c.EntFirst = cur.points(ne)
	c.EntLast = cur.points(ne)
	// An entry column the variant does not hold is only checked against
	// what the base derives in its place, so under either owner it is
	// viewed where it sits and never copied.
	mbrs, ords := view[geo.Rect], view[int32]
	if c.Variant.HoldsEntryMBRs() {
		mbrs = column[geo.Rect]
	}
	if c.Variant.HoldsEntryOrdinals() {
		ords = column[int32]
	}
	c.EntMBR = mbrs(cur, ne, 32, mmap.Rects)
	c.EntTraj = ords(cur, ne, 4, mmap.I32s)
	c.EntSeg = ords(cur, ne, 4, mmap.I32s)
	if cur.err != nil {
		return nil, cur.err
	}

	tab, err := readTrajectoryTable(cur, nt)
	if err != nil {
		return nil, err
	}
	f, err := tqtree.FrozenFromColumns(c, tab)
	if err != nil {
		return nil, badSnapshot(err)
	}
	if cur.pin != nil {
		f.SetPin(cur.pin)
	}
	return f, nil
}

// WriteSnapshot serializes the frozen index as a TQSNAP03 stream: the
// columnar payload framed by a magic header and a CRC32 trailer.
func (x *FrozenIndex) WriteSnapshot(w io.Writer) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(mw, frozenMagic); err != nil {
		return err
	}
	if err := writeFrozenPayload(mw, x.engine.Frozen()); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// ReadFrozenSnapshot restores a FrozenIndex written by
// (*FrozenIndex).WriteSnapshot. The stream is read to its end, its CRC
// verified, and the columns copied out and bounds-checked — no tree
// rebuild. A stream of another format is rejected with a pointer to the
// right reader.
func ReadFrozenSnapshot(r io.Reader) (*FrozenIndex, error) {
	data, err := (&streamSource{r: r}).all()
	if err != nil {
		return nil, err
	}
	return parseFrozenSnapshot(data, nil)
}

// parseFrozenSnapshot parses a whole TQSNAP03 image. Bytes after the
// payload are rejected under either owner: the trailer is the image's
// last four bytes, so anything extra sits inside the checksummed region.
func parseFrozenSnapshot(data []byte, pin *mappedToken) (*FrozenIndex, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrBadSnapshot, len(data))
	}
	if err := checkMagic(data[:8], frozenMagic); err != nil {
		return nil, err
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: truncated (%d bytes)", ErrBadSnapshot, len(data))
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(trailer) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	cur := &cursor{b: body[8:], pin: pin}
	f, err := readFrozenPayload(cur)
	if err != nil {
		return nil, err
	}
	if cur.remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, cur.remaining())
	}
	return newFrozenIndex(query.NewFrozenEngine(f, nil)), nil
}

// WriteSnapshot serializes the frozen sharded index as a TQSHRD02
// container: a CRC'd shared header (shard count, partitioner kind), then
// one length-prefixed, individually CRC'd frozen payload per shard.
// Per-frame checksums localize corruption to one shard and the length
// prefixes let tooling skip frames without decoding them.
func (x *FrozenShardedIndex) WriteSnapshot(w io.Writer) error {
	return writeContainer(w, shardedFrozenMagic, x.s.PartitionerKind(), x.s.NumShards(),
		func(i int) uint64 { return frozenPayloadSize(x.s.Engine(i).Frozen()) },
		func(w io.Writer, i int) error { return writeFrozenPayload(w, x.s.Engine(i).Frozen()) })
}

// ReadFrozenShardedSnapshot restores a FrozenShardedIndex written by
// (*FrozenShardedIndex).WriteSnapshot, one frame's bytes in memory at a
// time. It stops reading at the last declared frame.
func ReadFrozenShardedSnapshot(r io.Reader) (*FrozenShardedIndex, error) {
	return readFrozenSharded((&streamSource{r: r}).take, nil)
}

func readFrozenSharded(take func(n uint64) ([]byte, error), pin *mappedToken) (*FrozenShardedIndex, error) {
	var engines []*query.FrozenEngine
	kind, err := readContainer(take, shardedFrozenMagic, pin, func(c *cursor) error {
		f, err := readFrozenPayload(c)
		if err == nil {
			engines = append(engines, query.NewFrozenEngine(f, nil))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sf, err := shard.FrozenFromEngines(engines, engines[0].Frozen().Bounds(), kind)
	if err != nil {
		return nil, badSnapshot(err)
	}
	return newFrozenShardedIndex(sf), nil
}
