package trajcover

// Snapshot persistence. An Index or a FrozenIndex is written as its
// columns and read back without rebuilding a tree. One column encoding —
// the frozen payload of snapshot_frozen.go — travels in three framings,
// told apart by an 8-byte magic:
//
//	TQSNAP04 — a one-shard FrozenIndex: magic, frozen payload, CRC32
//	           trailer.
//	TQSHRD03 — a sharded FrozenIndex: CRC'd header (shard count,
//	           partitioner kind), then one length-prefixed, individually
//	           CRC'd frozen payload per shard.
//	TQLIVE02 — an Index: the same header and framing; each frame holds a
//	           shard's frozen base, its tombstones and its delta
//	           (snapshot_live.go).
//
// ReadFrozenSnapshot and OpenMappedFrozenSnapshot take either frozen
// framing, ReadLiveSnapshot and OpenMappedLiveSnapshot the live one; an
// Index also persists as its Freeze() and comes back mutable as the
// restored index's Live(). Retired formats — the rebuild formats that
// stored raw trajectories (TQSNAP02, TQSHRD01) and the record formats
// that stored one record per trajectory and every entry column
// (TQSNAP03, TQSHRD02, TQLIVE01) — are still recognised by their magics,
// to say so.
//
// This file is the one reader of those framings. Everything is parsed
// off a cursor over a []byte, and the cursor's only parameter is who
// owns the bytes. A mapping pin (snapshot_mmap.go): every column, the
// trajectory table's included, aliases the file where it is mapped, and
// the restored tqtree.Frozen pins the mapping. Nobody (the io.Reader
// entry points): the bytes are one frame — the whole stream for TQSNAP04
// — read into a buffer that is dropped after the parse, so every column
// is copied out at its exact size. The two owners differ in one check,
// by design: the copy recomputes each trajectory's length from its points
// and compares it with the recorded one, while an aliasing open must stay
// O(columns), not O(points), and serves the recorded length.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/mmap"
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

// The magics: eight bytes that open every snapshot stream.
const (
	frozenMagic        = "TQSNAP04"
	shardedFrozenMagic = "TQSHRD03"
	liveMagic          = "TQLIVE02"
)

// otherFormats says, for each magic a reader can meet in place of its
// own, what the stream is and which entry points take it.
var otherFormats = map[string]string{
	frozenMagic:        "single frozen snapshot (TQSNAP04); use ReadFrozenSnapshot or OpenMappedFrozenSnapshot",
	shardedFrozenMagic: "sharded frozen snapshot (TQSHRD03); use ReadFrozenSnapshot or OpenMappedFrozenSnapshot",
	liveMagic:          "live snapshot (TQLIVE02); use ReadLiveSnapshot or OpenMappedLiveSnapshot",
	"TQSNAP02":         "rebuild-format snapshot (TQSNAP02) is no longer readable; rebuild the index and write a frozen snapshot",
	"TQSHRD01":         "rebuild-format snapshot (TQSHRD01) is no longer readable; rebuild the index and write a frozen snapshot",
	"TQSNAP03":         "record-format snapshot (TQSNAP03) is no longer readable; rebuild the index and write a new snapshot",
	"TQSHRD02":         "record-format snapshot (TQSHRD02) is no longer readable; rebuild the index and write a new snapshot",
	"TQLIVE01":         "record-format snapshot (TQLIVE01) is no longer readable; rebuild the index and write a new snapshot",
}

// checkMagic is the one magic dispatch: nil when the stream opens with
// want, otherwise an error naming the format it does open with.
func checkMagic(got []byte, want string) error {
	if string(got) == want {
		return nil
	}
	if what, known := otherFormats[string(got)]; known {
		return fmt.Errorf("%w: %s", ErrBadSnapshot, what)
	}
	return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
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

// column takes n values of the given byte width off the cursor as a []T:
// viewed where they sit under a pin (internal/mmap decodes to the heap by
// itself where the host cannot alias), a copy of exactly n values
// otherwise.
func column[T any](c *cursor, n, width uint64, as func([]byte) []T) []T {
	if c.err == nil && n > uint64(c.remaining())/width {
		c.err = fmt.Errorf("%w: column of %d %d-byte values exceeds the %d bytes remaining", ErrBadSnapshot, n, width, c.remaining())
	}
	b := c.take(n * width)
	if c.err != nil {
		return nil
	}
	v := as(b)
	if c.pin == nil {
		v = append(make([]T, 0, len(v)), v...)
	}
	return v
}

func (c *cursor) rects(n uint64) []geo.Rect   { return column(c, n, 32, mmap.Rects) }
func (c *cursor) points(n uint64) []geo.Point { return column(c, n, 16, mmap.Points) }
func (c *cursor) i32s(n uint64) []int32       { return column(c, n, 4, mmap.I32s) }
func (c *cursor) f64s(n uint64) []float64     { return column(c, n, 8, mmap.F64s) }
func (c *cursor) u64s(n uint64) []uint64      { return column(c, n, 8, mmap.U64s) }

// table takes a trajectory section of nt rows and np points off the
// cursor — four columns: IDs, offsets (nt+1 of them, zero-padded to 8
// bytes), lengths and points — and assembles them into a table, which
// checks the offsets and the IDs. Where the columns were copied, each
// recorded length is checked against its points too.
func (c *cursor) table(nt, np uint64) (*trajectory.Table, error) {
	ids := column(c, nt, 4, mmap.U32s[trajectory.ID])
	off := column(c, nt+1, 4, mmap.U32s[uint32])
	c.take(pad8(4 * (2*nt + 1)))
	length := c.f64s(nt)
	points := c.points(np)
	if c.err != nil {
		return nil, c.err
	}
	tab, err := trajectory.NewTable(ids, off, length, points)
	if err == nil && c.pin == nil {
		err = tab.CheckLengths()
	}
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

// all returns the rest of the stream.
func (s *streamSource) all() ([]byte, error) {
	if err := s.fill(math.MaxUint64); err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, badSnapshot(err)
	}
	return s.buf, nil
}

// Limits on what a reader believes of a container before the bytes have
// borne it out.
const (
	maxShards  = 1 << 16
	maxKindLen = 256
)

// writeContainer writes a TQSHRD03 or TQLIVE02 container of n frames:
// the CRC'd header, then per frame its length (size must return exactly
// what payload writes, so no frame is buffered), the payload, its CRC and
// a pad. The pads keep every payload 8-aligned in the file — the header
// is 24+len(kind) bytes, a frame 8+payload+4+4 — because a mapped open
// aliases columns at file offsets.
func writeContainer(w io.Writer, magic, kind string, n int, size func(i int) uint64, payload func(w io.Writer, i int) error) error {
	head := []byte(magic)
	head = binary.LittleEndian.AppendUint64(head, uint64(n))
	head = binary.LittleEndian.AppendUint32(head, uint32(len(kind)))
	head = append(head, kind...)
	head = binary.LittleEndian.AppendUint32(head, crc32.ChecksumIEEE(head))
	head = append(head, make([]byte, pad8(uint64(len(kind))))...)
	if _, err := w.Write(head); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if err := binary.Write(w, binary.LittleEndian, size(i)); err != nil {
			return err
		}
		crc := crc32.NewIEEE()
		if err := payload(io.MultiWriter(w, crc), i); err != nil {
			return err
		}
		var trailer [8]byte // the CRC, then four zero pad bytes
		binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
		if _, err := w.Write(trailer[:]); err != nil {
			return err
		}
	}
	return nil
}

// readContainer parses a TQSHRD03 or TQLIVE02 container whose bytes take
// hands out in order: the CRC'd header (magic, shard count, partitioner
// kind, zero pad to 8), then per shard a length prefix, the payload, its
// CRC and a zero pad. Each payload is CRC-checked before frame sees a
// byte of it, and must be consumed exactly; frame parses it with a cursor
// owned by pin. Bytes after the last declared frame are not read here: a
// stream reader never sees them, a mapped open rejects them itself.
func readContainer(take func(n uint64) ([]byte, error), want string, pin *mappedToken, frame func(c *cursor) error) (kind string, err error) {
	var crc uint32
	hashed := func(n uint64) ([]byte, error) {
		b, err := take(n)
		crc = crc32.Update(crc, crc32.IEEETable, b)
		return b, err
	}
	magic, err := hashed(8)
	if err != nil {
		return "", err
	}
	if err := checkMagic(magic, want); err != nil {
		return "", err
	}
	fixed, err := hashed(12)
	if err != nil {
		return "", err
	}
	nShards, kindLen := binary.LittleEndian.Uint64(fixed), uint64(binary.LittleEndian.Uint32(fixed[8:]))
	if kindLen > maxKindLen {
		return "", fmt.Errorf("%w: implausible partitioner kind length %d", ErrBadSnapshot, kindLen)
	}
	kindBytes, err := hashed(kindLen)
	if err != nil {
		return "", err
	}
	kind = string(kindBytes)
	// The pads realign the stream after a CRC and sit outside every CRC,
	// so they are checked to be zero: a flipped pad bit stays a loud error.
	tail, err := take(4 + pad8(kindLen))
	if err != nil {
		return "", err
	}
	if binary.LittleEndian.Uint32(tail) != crc {
		return "", fmt.Errorf("%w: header checksum mismatch", ErrBadSnapshot)
	}
	if !allZero(tail[4:]) {
		return "", fmt.Errorf("%w: nonzero padding", ErrBadSnapshot)
	}
	if nShards == 0 || nShards > maxShards {
		return "", fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, nShards)
	}

	for s := uint64(0); s < nShards; s++ {
		prefix, err := take(8)
		if err != nil {
			return "", fmt.Errorf("frame %d: %w", s, err)
		}
		payloadLen := binary.LittleEndian.Uint64(prefix)
		if payloadLen > math.MaxUint64-8 {
			return "", fmt.Errorf("%w: frame %d: implausible length %d", ErrBadSnapshot, s, payloadLen)
		}
		// Payload, CRC and pad in one take: a stream's buffer holds one.
		b, err := take(payloadLen + 8)
		if err != nil {
			return "", fmt.Errorf("frame %d: %w", s, err)
		}
		payload, trailer := b[:payloadLen:payloadLen], b[payloadLen:]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(trailer) {
			return "", fmt.Errorf("%w: frame %d checksum mismatch", ErrBadSnapshot, s)
		}
		if !allZero(trailer[4:]) {
			return "", fmt.Errorf("%w: frame %d nonzero padding", ErrBadSnapshot, s)
		}
		c := &cursor{b: payload, pin: pin}
		if err := frame(c); err != nil {
			return "", fmt.Errorf("frame %d: %w", s, err)
		}
		if c.remaining() != 0 {
			return "", fmt.Errorf("%w: frame %d has %d trailing bytes", ErrBadSnapshot, s, c.remaining())
		}
	}
	return kind, nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
