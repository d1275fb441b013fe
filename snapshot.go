package trajcover

// Snapshot persistence. An Index is written as its columns and read back
// without rebuilding a tree, in one format, TQLIVE02, opened by its
// 8-byte magic: a CRC'd header (shard count, partitioner kind), then one
// length-prefixed, individually CRC'd frame per shard, each holding the
// shard's frozen base (the frozen payload of snapshot_frozen.go), its
// tombstones and its delta (snapshot_live.go). Index.WriteSnapshot writes
// it, the epochs as they are; a caller that wants every shard's pending
// writes folded into its base calls Compact first. ReadLiveSnapshot and
// OpenMappedLiveSnapshot restore an Index from it. Retired formats — the
// rebuild formats that stored raw trajectories (TQSNAP02, TQSHRD01), the
// record formats that stored one record per trajectory and every entry
// column (TQSNAP03, TQSHRD02, TQLIVE01) and the frozen formats that held
// bases alone (TQSNAP04, TQSHRD03) — are still recognised by their
// magics, to say so.
//
// This file is the one writer and the one reader of the container.
// Everything is parsed off a cursor over a []byte, and the cursor's only
// parameter is who owns the bytes. A mapping pin (snapshot_mmap.go):
// every base column, the trajectory table's included, aliases the file
// where it is mapped, and the restored tqtree.Frozen pins the mapping.
// Nobody (the io.Reader entry point): the bytes are one frame, read into
// a buffer that is dropped after the parse, so every column is copied out
// at its exact size — but for a two-point table's offsets and lengths,
// which the table derives and does not keep. Both owners run the same
// checks, recorded lengths against their points included.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// ErrBadSnapshot is returned when a snapshot stream is malformed or its
// checksum does not match.
var ErrBadSnapshot = errors.New("trajcover: invalid snapshot")

// badSnapshot marks an error from a layer below as a malformed snapshot.
func badSnapshot(err error) error {
	if err == nil || errors.Is(err, ErrBadSnapshot) {
		return err
	}
	return fmt.Errorf("%w: %v", ErrBadSnapshot, err)
}

// liveMagic is the eight bytes that open every snapshot stream.
const liveMagic = "TQLIVE02"

// retiredFormats says, for each magic the reader recognises and no
// longer reads, what the stream is.
var retiredFormats = map[string]string{
	"TQSNAP02": "rebuild-format snapshot (TQSNAP02) is no longer readable; rebuild the index and write a new snapshot",
	"TQSHRD01": "rebuild-format snapshot (TQSHRD01) is no longer readable; rebuild the index and write a new snapshot",
	"TQSNAP03": "record-format snapshot (TQSNAP03) is no longer readable; rebuild the index and write a new snapshot",
	"TQSHRD02": "record-format snapshot (TQSHRD02) is no longer readable; rebuild the index and write a new snapshot",
	"TQLIVE01": "record-format snapshot (TQLIVE01) is no longer readable; rebuild the index and write a new snapshot",
	"TQSNAP04": "frozen-format snapshot (TQSNAP04) is no longer readable; restore it with an earlier build and write it again with WriteSnapshot",
	"TQSHRD03": "frozen-format snapshot (TQSHRD03) is no longer readable; restore it with an earlier build and write it again with WriteSnapshot",
}

// checkMagic is the one magic check: nil when the stream opens with the
// readable magic, otherwise an error naming the format it does open
// with.
func checkMagic(got []byte) error {
	if string(got) == liveMagic {
		return nil
	}
	if what, known := retiredFormats[string(got)]; known {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, what)
	}
	return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
}

// ReadLiveSnapshot restores an Index from a TQLIVE02 stream
// (WriteSnapshot): the CRCs verified, the columns copied out and
// bounds-checked — no tree rebuild — with any pending delta and
// tombstones, which the next rebuild folds as usual. pol tunes the
// restored index's compaction policy (policy is operational state, not
// data, so it is not recorded). The stream is read one frame's bytes at a
// time, stopping at its last declared frame.
func ReadLiveSnapshot(r io.Reader, pol LivePolicy) (*Index, error) {
	return readContainer((&streamSource{r: r}).take, nil, pol)
}

// cursor is the bounds-checked reader over a snapshot's bytes. Every read
// is validated against what remains, so a corrupt count is an
// ErrBadSnapshot, never an out-of-range slice or an allocation the bytes
// present could not fill. The first failure sticks in err and every
// later read returns zero values: a parse reads a run of fields, then
// checks err once.
type cursor struct {
	b   []byte
	off int
	// pin owns b on behalf of everything parsed from it: columns alias b
	// and the parse result must keep pin reachable. nil means nobody owns
	// b past the parse, and whatever is kept is copied out of it.
	pin *mappedToken
	err error
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) take(n uint64) []byte {
	if c.err != nil {
		return nil
	}
	if n > uint64(c.remaining()) {
		c.err = fmt.Errorf("%w: truncated (need %d bytes, have %d)", ErrBadSnapshot, n, c.remaining())
		return nil
	}
	b := c.b[c.off : c.off+int(n) : c.off+int(n)]
	c.off += int(n)
	return b
}

// next is take for the container walk, which checks every step.
func (c *cursor) next(n uint64) ([]byte, error) {
	b := c.take(n)
	return b, c.err
}

func (c *cursor) u64() uint64 {
	if b := c.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// align takes the zero pad that realigns the payload to 8 bytes after a
// 4-byte column group.
func (c *cursor) align() { c.take(pad8(uint64(c.off))) }

// width returns the byte width of a T.
func width[T mmap.Column]() uint64 {
	var zero T
	return uint64(unsafe.Sizeof(zero))
}

// pad8 returns the zero bytes needed to realign a stream to 8 after
// size bytes.
func pad8(size uint64) uint64 { return (8 - size%8) % 8 }

// column takes n values of T off the cursor: viewed where they sit under
// a pin (mmap.View copies by itself where the host cannot alias), a copy
// of exactly n values otherwise.
func column[T mmap.Column](c *cursor, n uint64) []T {
	v := view[T](c, n)
	if c.err == nil && c.pin == nil {
		v = append(make([]T, 0, len(v)), v...)
	}
	return v
}

// view is column viewed where the values sit under any owner, for a
// column the parse checks and does not keep: the view is valid only
// until the cursor's bytes are reused.
func view[T mmap.Column](c *cursor, n uint64) []T {
	w := width[T]()
	if c.err == nil && n > uint64(c.remaining())/w {
		c.err = fmt.Errorf("%w: column of %d %d-byte values exceeds the %d bytes remaining", ErrBadSnapshot, n, w, c.remaining())
	}
	b := c.take(n * w)
	if c.err != nil {
		return nil
	}
	return mmap.View[T](b)
}

// table takes a trajectory section of nt rows and np points off the
// cursor — four columns: IDs, offsets (nt+1 of them, zero-padded to 8
// bytes), lengths and points — and assembles them into a table, which
// checks the offsets, the IDs and every recorded length. The offsets and
// lengths are copied only where the table keeps them: a valid section of
// 2·nt points has no multipoint row, and NewTable derives both from the
// points, so there they are only viewed.
func (c *cursor) table(nt, np uint64) (*trajectory.Table, error) {
	ids := column[trajectory.ID](c, nt)
	off := view[uint32](c, nt+1)
	c.align()
	length := view[float64](c, nt)
	points := column[geo.Point](c, np)
	if c.err != nil {
		return nil, c.err
	}
	if c.pin == nil && np != 2*nt {
		off = append(make([]uint32, 0, len(off)), off...)
		length = append(make([]float64, 0, len(length)), length...)
	}
	tab, err := trajectory.NewTable(ids, off, length, points)
	return tab, badSnapshot(err)
}

// streamSource reads a snapshot off an io.Reader into one buffer, reused
// from read to read — each invalidates the bytes of the one before. The
// buffer grows only as bytes arrive, doubling, so a forged length prefix
// costs at most twice what the stream really holds.
type streamSource struct {
	r   io.Reader
	buf []byte
}

// minStreamBuf is the least the buffer grows by.
const minStreamBuf = 64 << 10

// fill reads until the buffer holds n bytes, or the stream ends (io.EOF,
// io.ErrUnexpectedEOF) or fails first.
func (s *streamSource) fill(n uint64) error {
	s.buf = s.buf[:0]
	for uint64(len(s.buf)) < n {
		if len(s.buf) == cap(s.buf) {
			s.buf = slices.Grow(s.buf, int(min(n-uint64(len(s.buf)), uint64(max(len(s.buf), minStreamBuf)))))
		}
		end := int(min(n, uint64(cap(s.buf))))
		m, err := io.ReadFull(s.r, s.buf[len(s.buf):end])
		s.buf = s.buf[:len(s.buf)+m]
		if err != nil {
			return err
		}
	}
	return nil
}

// take returns the stream's next n bytes.
func (s *streamSource) take(n uint64) ([]byte, error) {
	if err := s.fill(n); err != nil {
		return nil, fmt.Errorf("%w: truncated (need %d bytes, have %d: %v)", ErrBadSnapshot, n, len(s.buf), err)
	}
	return s.buf, nil
}

// Limits on what a reader believes of a container before the bytes have
// borne it out.
const (
	maxShards  = 1 << 16
	maxKindLen = 256
)

// writeLiveSnapshot writes a captured epoch set as a TQLIVE02 container:
// the CRC'd header, then per shard its frame's length (what a counting
// pass of the frame's writer counts, so no frame is buffered), the
// payload, its CRC and a pad. The pads keep every payload 8-aligned in
// the file — the header is 24+len(kind) bytes, a frame 8+payload+4+4 —
// because a mapped open aliases columns at file offsets.
func writeLiveSnapshot(w io.Writer, eps []*query.Epoch, kind string) error {
	head := []byte(liveMagic)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(eps)))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(kind)))
	head = append(head, kind...)
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	head = append(head, zeros[:pad8(uint64(len(kind)))]...)
	if _, err := w.Write(head); err != nil {
		return err
	}
	for _, ep := range eps {
		s, err := shardFrameOf(ep)
		if err != nil {
			return err
		}
		var size frame
		s.write(&size)
		if err := binary.Write(w, binary.LittleEndian, size.n); err != nil {
			return err
		}
		crc := crc32.NewIEEE()
		out := frame{w: io.MultiWriter(w, crc)}
		if s.write(&out); out.err != nil {
			return out.err
		}
		var trailer [8]byte // the CRC, then four zero pad bytes
		binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
		if _, err := w.Write(trailer[:]); err != nil {
			return err
		}
	}
	return nil
}

// readContainer parses a TQLIVE02 container whose bytes take hands out
// in order: the CRC'd header (magic, shard count, partitioner kind, zero
// pad to 8), then per shard a length prefix, the payload, its CRC and a
// zero pad. Each payload is CRC-checked before a byte of it is parsed,
// and must be consumed exactly; it is parsed by readShardPayload with a
// cursor owned by pin. Bytes after the last declared frame are not read
// here: a stream reader never sees them, a mapped open rejects them
// itself. The shards are restored as one Index under the partitioner the
// header records; any kind but "hash" and "grid" is an ErrBadSnapshot,
// and so is an ID two shards share.
func readContainer(take func(n uint64) ([]byte, error), pin *mappedToken, pol LivePolicy) (*Index, error) {
	var crc uint32
	hashed := func(n uint64) ([]byte, error) {
		b, err := take(n)
		crc = crc32.Update(crc, crc32.IEEETable, b)
		return b, err
	}
	magic, err := hashed(8)
	if err != nil {
		return nil, err
	}
	if err := checkMagic(magic); err != nil {
		return nil, err
	}
	fixed, err := hashed(12)
	if err != nil {
		return nil, err
	}
	nShards, kindLen := binary.LittleEndian.Uint64(fixed), uint64(binary.LittleEndian.Uint32(fixed[8:]))
	if kindLen > maxKindLen {
		return nil, fmt.Errorf("%w: implausible partitioner kind length %d", ErrBadSnapshot, kindLen)
	}
	kindBytes, err := hashed(kindLen)
	if err != nil {
		return nil, err
	}
	kind := string(kindBytes) // a stream's next take reuses the buffer
	// The pads realign the stream after a CRC and sit outside every CRC,
	// so they are checked to be zero: a flipped pad bit stays a loud error.
	tail, err := take(4 + pad8(kindLen))
	if err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(tail) != crc {
		return nil, fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	if !allZero(tail[4:]) {
		return nil, fmt.Errorf("%w: nonzero padding", ErrBadSnapshot)
	}
	part, err := shard.PartitionerOf(kind)
	if err != nil {
		return nil, badSnapshot(err)
	}
	if nShards == 0 || nShards > maxShards {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, nShards)
	}

	var eps []*query.Epoch
	for s := uint64(0); s < nShards; s++ {
		prefix, err := take(8)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
		payloadLen := binary.LittleEndian.Uint64(prefix)
		if payloadLen > math.MaxUint64-8 {
			return nil, fmt.Errorf("%w: frame %d: implausible length %d", ErrBadSnapshot, s, payloadLen)
		}
		// Payload, CRC and pad in one take: a stream's buffer holds one.
		b, err := take(payloadLen + 8)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
		payload, trailer := b[:payloadLen:payloadLen], b[payloadLen:]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
			return nil, fmt.Errorf("%w: frame %d checksum mismatch", ErrBadSnapshot, s)
		}
		if !allZero(trailer[4:]) {
			return nil, fmt.Errorf("%w: frame %d nonzero padding", ErrBadSnapshot, s)
		}
		c := &cursor{b: payload, pin: pin}
		ep, err := readShardPayload(c)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
		if c.remaining() != 0 {
			return nil, fmt.Errorf("%w: frame %d has %d trailing bytes", ErrBadSnapshot, s, c.remaining())
		}
		eps = append(eps, ep)
	}
	l, err := shard.LiveFromEpochs(eps, part, pol.policy())
	if err != nil {
		return nil, badSnapshot(err)
	}
	return newIndex(l), nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
