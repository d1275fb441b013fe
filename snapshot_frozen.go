package trajcover

// The frozen payload: the column encoding of a shard's base, which opens
// every frame of a snapshot (snapshot.go has the container), its writer,
// and its one reader.
//
// A frozen payload is a fixed header, the column slices of
// tqtree.FrozenColumns in fixed order — the endpoints for every variant,
// the other entry columns only where the variant holds them — and the
// trajectory section: the four columns of
// the trajectory.Table (IDs, point offsets, lengths, points) in ordinal
// order (entry-slab first appearance, so entTraj values resolve by
// position). Every column, written and read, goes through internal/mmap's
// one codec: the writer puts mmap.Bytes of each column, its memory as it
// stands on a little-endian host, and the reader takes mmap.View of its
// bytes. Restoring is the CRC check, a copy or an aliasing of each
// column, and the structural validation of trajectory.NewTable and
// tqtree.FrozenFromColumns — no tree rebuild, no sorting but the check
// that the table's IDs are unique.
//
// Every multi-byte column starts at an offset that is a multiple of 8
// from the payload start (after each 4-byte column group, frame.align
// writes and cursor.align takes the zero pad the running byte count
// calls for; the container pads its header and frames), for the mapped
// open (snapshot_mmap.go): 8-alignment lets the reader alias
// float64/uint64/Rect/Point columns directly onto a page-aligned file
// mapping. Pad bytes are covered by the CRCs like any other payload byte.
// The trajectory section records each trajectory's offset and length;
// both owners check every recorded length against its points, and a table
// with no multipoint row keeps neither column (trajectory.NewTable).

import (
	"fmt"
	"io"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// frame writes a frame's payload to w or, with w nil, only counts its
// bytes: a frame's length prefix is what a counting pass over the code
// that writes it counts. A stored column goes out as one Write of its
// memory (mmap.Bytes); a derived one, which the payload records and the
// index does not hold, is generated through a bounded scratch chunk, and
// the counting pass only adds its size.
type frame struct {
	w   io.Writer
	n   uint64 // bytes written or counted since the payload's start
	err error
}

func (f *frame) write(b []byte) {
	f.n += uint64(len(b))
	if f.w != nil && f.err == nil && len(b) > 0 {
		_, f.err = f.w.Write(b)
	}
}

// zeros is the source of the pads.
var zeros [8]byte

// align writes the zero pad that realigns the payload to 8 bytes after a
// 4-byte column group (cursor.align takes it).
func (f *frame) align() { f.write(zeros[:pad8(f.n)]) }

// put writes a stored column as it sits in memory.
func put[T mmap.Column](f *frame, vs []T) {
	if f.w == nil {
		f.n += uint64(len(vs)) * width[T]()
		return
	}
	f.write(mmap.Bytes(vs))
}

// chunkLen bounds the scratch a derived column is generated through.
const chunkLen = 4096

// derive writes an n-value column through a scratch chunk, fill(dst,
// lo) setting dst[i] to value lo+i, chunk after chunk in order; counting,
// it calls fill for none.
func derive[T mmap.Column](f *frame, n int, fill func(dst []T, lo int)) {
	if f.w == nil {
		f.n += uint64(n) * width[T]()
		return
	}
	chunk := make([]T, min(n, chunkLen))
	for lo := 0; lo < n; lo += len(chunk) {
		dst := chunk[:min(len(chunk), n-lo)]
		fill(dst, lo)
		put(f, dst)
	}
}

// putTable writes t as a trajectory section, the four columns
// cursor.table reads; the row and point counts go in the header before
// it. The offsets and lengths are derived row by row from the table's
// accessors, which compute them where the table holds neither.
func putTable(f *frame, t *trajectory.Table) {
	ids, points := t.Columns()
	put(f, ids)
	var off uint32
	derive(f, len(ids)+1, func(dst []uint32, lo int) {
		for i := range dst {
			if row := lo + i; row > 0 {
				off += uint32(t.NumPoints(int32(row - 1)))
			}
			dst[i] = off
		}
	})
	f.align()
	derive(f, len(ids), func(dst []float64, lo int) {
		for i := range dst {
			dst[i] = t.Length(int32(lo + i))
		}
	})
	put(f, points)
}

// writeFrozenPayload writes the frozen index: a fixed header, the column
// slices in fixed order, then the trajectory section.
func writeFrozenPayload(f *frame, fz *tqtree.Frozen) {
	c := fz.Columns()
	tab := fz.Table()
	put(f, []uint64{uint64(c.Variant), uint64(c.Ordering), uint64(c.Beta), uint64(c.MaxDepth)})
	put(f, []geo.Rect{c.Bounds})
	put(f, []uint64{uint64(len(c.NodeRect)), uint64(len(c.BktMinStart)), uint64(fz.NumEntries()), uint64(tab.Len()), uint64(tab.TotalPoints())})
	put(f, c.NodeRect)
	put(f, c.ChildBase)
	put(f, c.ChildCount)
	put(f, c.EntryOff)
	f.align()
	put(f, c.OwnUB)
	put(f, c.TreeUB)
	if c.Ordering == tqtree.ZOrder {
		put(f, c.BucketOff)
		put(f, c.BktEntryOff)
		f.align()
		put(f, c.BktMinStart)
		put(f, c.BktMaxStart)
		put(f, c.BktStartMBR)
		put(f, c.BktEndMBR)
		put(f, c.BktFullMBR)
	}
	if c.EntFirst != nil {
		put(f, c.EntFirst)
		put(f, c.EntLast)
	} else {
		// A whole-trajectory base's endpoints are its table rows'.
		derive(f, fz.NumEntries(), func(dst []geo.Point, lo int) {
			for i := range dst {
				dst[i], _ = fz.EntryEnds(int32(lo + i))
			}
		})
		derive(f, fz.NumEntries(), func(dst []geo.Point, lo int) {
			for i := range dst {
				_, dst[i] = fz.EntryEnds(int32(lo + i))
			}
		})
	}
	// Nil where the variant does not hold them: nothing is written.
	put(f, c.EntMBR)
	put(f, c.EntTraj)
	put(f, c.EntSeg)
	putTable(f, tab)
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

	c.NodeRect = column[geo.Rect](cur, nn)
	c.ChildBase = column[int32](cur, nn)
	c.ChildCount = column[int32](cur, nn)
	c.EntryOff = column[int32](cur, nn+1)
	cur.align()
	c.OwnUB = column[float64](cur, nn*uint64(service.NumScenarios))
	c.TreeUB = column[float64](cur, nn*uint64(service.NumScenarios))
	if c.Ordering == tqtree.ZOrder {
		c.BucketOff = column[int32](cur, nn+1)
		c.BktEntryOff = column[int32](cur, nb+1)
		cur.align()
		c.BktMinStart = column[uint64](cur, nb)
		c.BktMaxStart = column[uint64](cur, nb)
		c.BktStartMBR = column[geo.Rect](cur, nb)
		c.BktEndMBR = column[geo.Rect](cur, nb)
		c.BktFullMBR = column[geo.Rect](cur, nb)
	}
	if c.Variant.HoldsEntryOrdinals() {
		c.EntFirst, c.EntLast = column[geo.Point](cur, ne), column[geo.Point](cur, ne)
	} else {
		// Checked against the table and dropped: viewed under any owner.
		c.EntFirst, c.EntLast = view[geo.Point](cur, ne), view[geo.Point](cur, ne)
	}
	if c.Variant.HoldsEntryMBRs() {
		c.EntMBR = column[geo.Rect](cur, ne)
	}
	if c.Variant.HoldsEntryOrdinals() {
		c.EntTraj = column[int32](cur, ne)
		c.EntSeg = column[int32](cur, ne)
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
