package trajcover

// The frozen payload: the one column encoding every snapshot format
// carries (snapshot.go lists the framings), its writer, and its one
// reader.
//
// A frozen payload is a fixed header, the column slices of
// tqtree.FrozenColumns in fixed order — the endpoints for every variant,
// the other entry columns only where the variant holds them — and the
// trajectory section: the four columns of
// the trajectory.Table (IDs, point offsets, lengths, points) in ordinal
// order (entry-slab first appearance, so entTraj values resolve by
// position). The bytes on disk are the columns in memory. Restoring is
// the CRC check, a copy or an aliasing of each column, and the structural
// validation of trajectory.NewTable and tqtree.FrozenFromColumns — no
// tree rebuild, no sorting but the table's ID lookup.
//
// Every multi-byte column starts at an offset that is a multiple of 8
// from the payload start (zero pad bytes follow the 4-byte column groups
// and the container headers/frames where needed), for the mapped open
// (snapshot_mmap.go): 8-alignment lets the reader alias
// float64/uint64/Rect/Point columns directly onto a page-aligned file
// mapping. Pad bytes are covered by the CRCs like any other payload byte.
// The trajectory section records each trajectory's offset and length;
// both owners check every recorded length against its points, and a table
// with no multipoint row keeps neither column (trajectory.NewTable).

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
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

// words writes a column of 4-byte values.
func words[T ~int32 | ~uint32](cw *colWriter, vs []T) {
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

func (cw *colWriter) point(p geo.Point) {
	cw.u64(math.Float64bits(p.X))
	cw.u64(math.Float64bits(p.Y))
}

func (cw *colWriter) points(vs []geo.Point) {
	for _, p := range vs {
		cw.point(p)
	}
}

// ends writes the EntFirst and EntLast columns of f, which a
// whole-trajectory base does not hold: entry by entry, from EntryEnds.
func (cw *colWriter) ends(f *tqtree.Frozen) {
	ne := int32(f.NumEntries())
	for e := range ne {
		a, _ := f.EntryEnds(e)
		cw.point(a)
	}
	for e := range ne {
		_, b := f.EntryEnds(e)
		cw.point(b)
	}
}

// pad writes n zero bytes (n < 8; realigns the stream to 8 bytes after
// a 4-byte column group).
func (cw *colWriter) pad(n int) {
	for i := 0; i < n; i++ {
		cw.buf = append(cw.buf, 0)
	}
	cw.flushIfFull()
}

// table writes t as a trajectory section, the four columns cursor.table
// reads; the row and point counts go in the header before it. The offsets
// and lengths are written row by row from the table's accessors, which
// derive them where the table holds neither.
func (cw *colWriter) table(t *trajectory.Table) {
	ids, points := t.Columns()
	words(cw, ids)
	var off uint32
	cw.u32(off)
	for i := range int32(len(ids)) {
		off += uint32(t.NumPoints(i))
		cw.u32(off)
	}
	cw.pad(i32Pad(2*uint64(len(ids)) + 1))
	for i := range int32(len(ids)) {
		cw.u64(math.Float64bits(t.Length(i)))
	}
	cw.points(points)
}

// pad8 returns the zero bytes needed to realign a stream to 8 after
// size bytes.
func pad8(size uint64) uint64 { return (8 - size%8) % 8 }

// i32Pad returns the pad after an n-value 4-byte column group.
func i32Pad(n uint64) int { return int(pad8(4 * n)) }

// tableSize is the encoded size of a trajectory section of nt rows and np
// points.
func tableSize(nt, np uint64) uint64 {
	return 4*(2*nt+1) + pad8(4*(2*nt+1)) + 8*nt + 16*np
}

// frozenPayloadSize returns the exact encoded byte size of
// writeFrozenPayload's output — used to length-prefix TQSHRD03 frames
// without buffering them.
func frozenPayloadSize(f *tqtree.Frozen) uint64 {
	c := f.Columns()
	nn := uint64(len(c.NodeRect))
	nb := uint64(len(c.BktMinStart))
	ne := uint64(f.NumEntries())
	size := uint64(13 * 8)                            // header
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
	size += ne * 16 * 2                              // entFirst, entLast
	size += 32 * uint64(len(c.EntMBR))               // where held
	size += 4 * uint64(len(c.EntTraj)+len(c.EntSeg)) // where held: 8·ne bytes, 8-aligned
	tab := f.Table()
	return size + tableSize(uint64(tab.Len()), uint64(tab.TotalPoints()))
}

// writeFrozenPayload encodes the frozen index: a fixed header, the column
// slices in fixed order, then the trajectory section.
func writeFrozenPayload(w io.Writer, f *tqtree.Frozen) error {
	c := f.Columns()
	tab := f.Table()
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
	cw.u64(uint64(f.NumEntries()))
	cw.u64(uint64(tab.Len()))
	cw.u64(uint64(tab.TotalPoints()))

	nn := uint64(len(c.NodeRect))
	nb := uint64(len(c.BktMinStart))
	cw.rects(c.NodeRect)
	words(cw, c.ChildBase)
	words(cw, c.ChildCount)
	words(cw, c.EntryOff)
	cw.pad(i32Pad(3*nn + 1))
	cw.f64s(c.OwnUB)
	cw.f64s(c.TreeUB)
	if c.Ordering == tqtree.ZOrder {
		words(cw, c.BucketOff)
		words(cw, c.BktEntryOff)
		cw.pad(i32Pad(nn + nb + 2))
		cw.u64s(c.BktMinStart)
		cw.u64s(c.BktMaxStart)
		cw.rects(c.BktStartMBR)
		cw.rects(c.BktEndMBR)
		cw.rects(c.BktFullMBR)
	}
	cw.ends(f)
	// Nil where the variant does not hold them: nothing is written.
	cw.rects(c.EntMBR)
	words(cw, c.EntTraj)
	words(cw, c.EntSeg)
	cw.table(tab)
	cw.flush()
	return cw.err
}

// readFrozenPayload decodes a frozen payload off the cursor and
// reassembles the index (structural validation included), trajectory
// table and all. Under a pin the columns alias the cursor's bytes and the
// index pins their owner.
func readFrozenPayload(cur *cursor) (*tqtree.Frozen, error) {
	var header [13]uint64
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
	nn, nb, ne, nt, np := header[8], header[9], header[10], header[11], header[12]
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
	if c.Variant.HoldsEntryOrdinals() {
		c.EntFirst, c.EntLast = cur.points(ne), cur.points(ne)
	} else {
		// Checked against the table and dropped: viewed under any owner.
		c.EntFirst, c.EntLast = cur.pointView(ne), cur.pointView(ne)
	}
	if c.Variant.HoldsEntryMBRs() {
		c.EntMBR = cur.rects(ne)
	}
	if c.Variant.HoldsEntryOrdinals() {
		c.EntTraj = cur.i32s(ne)
		c.EntSeg = cur.i32s(ne)
	}
	tab, err := cur.table(nt, np)
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

// WriteSnapshot serializes the frozen index. One shard is a TQSNAP04
// stream: the columnar payload framed by a magic header and a CRC32
// trailer. Several are a TQSHRD03 container: a CRC'd shared header (shard
// count, partitioner kind), then one length-prefixed, individually CRC'd
// frozen payload per shard, so a checksum localizes corruption to one
// shard and tooling can skip frames without decoding them.
func (x *FrozenIndex) WriteSnapshot(w io.Writer) error {
	if x.s.NumShards() > 1 {
		return x.writeSharded(w)
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(mw, frozenMagic); err != nil {
		return err
	}
	if err := writeFrozenPayload(mw, x.s.Base(0)); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// writeSharded writes the index as a TQSHRD03 container, one frame per
// shard.
func (x *FrozenIndex) writeSharded(w io.Writer) error {
	return writeContainer(w, shardedFrozenMagic, x.s.PartitionerKind(), x.s.NumShards(),
		func(i int) uint64 { return frozenPayloadSize(x.s.Base(i)) },
		func(w io.Writer, i int) error { return writeFrozenPayload(w, x.s.Base(i)) })
}

// ReadFrozenSnapshot restores a FrozenIndex written by WriteSnapshot, in
// either framing: the CRCs verified, the columns copied out and
// bounds-checked — no tree rebuild. A TQSNAP04 stream is read to its end;
// a TQSHRD03 container one frame's bytes at a time, stopping at its last
// declared frame. A stream of another format is rejected with a pointer
// to the right reader.
func ReadFrozenSnapshot(r io.Reader) (*FrozenIndex, error) {
	var magic [8]byte
	n, err := io.ReadFull(r, magic[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, badSnapshot(err)
	}
	src := &streamSource{r: io.MultiReader(bytes.NewReader(magic[:n]), r)}
	if string(magic[:n]) == shardedFrozenMagic {
		return readFrozenSharded(src.take, nil)
	}
	data, err := src.all()
	if err != nil {
		return nil, err
	}
	return parseFrozenSnapshot(data, nil)
}

// parseFrozenSnapshot parses a whole TQSNAP04 image. Bytes after the
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
	return frozenIndexOf([]*tqtree.Frozen{f}, shard.Hash{}.Kind())
}

// readFrozenSharded parses a TQSHRD03 container whose bytes take hands
// out in order.
func readFrozenSharded(take func(n uint64) ([]byte, error), pin *mappedToken) (*FrozenIndex, error) {
	var bases []*tqtree.Frozen
	kind, err := readContainer(take, shardedFrozenMagic, pin, func(c *cursor) error {
		f, err := readFrozenPayload(c)
		if err == nil {
			bases = append(bases, f)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return frozenIndexOf(bases, kind)
}

// frozenIndexOf serves restored shards, refusing an ID two of them share.
func frozenIndexOf(bases []*tqtree.Frozen, kind string) (*FrozenIndex, error) {
	sf, err := shard.FrozenOf(bases, kind)
	if err != nil {
		return nil, badSnapshot(err)
	}
	return newFrozenIndex(sf), nil
}
