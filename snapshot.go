package trajcover

// Snapshot persistence: an Index or ShardedIndex can be written to and
// restored from a compact binary stream. A snapshot stores the
// configuration and the raw trajectories; restoring rebuilds the
// TQ-tree(s), which is fast (a few hundred milliseconds per million
// trips) and keeps the format decoupled from the in-memory node layout.
//
// Two rebuild-format streams share the encoding of a trajectory payload:
//
//	TQSNAP02 — single index: header, one trajectory payload, CRC trailer.
//	TQSHRD01 — sharded container: CRC'd shared header (options, shard
//	           count, partitioner kind), then one length-prefixed,
//	           individually CRC'd frame per shard. The frames record the
//	           partition itself, so restoring never re-runs the
//	           partitioner — each shard rebuilds from its own frame, one
//	           frame (and one shard) at a time.
//
// The frozen columnar formats (TQSNAP03/TQSHRD02, snapshot_frozen.go)
// serialize a FrozenIndex's flat slices verbatim instead, trading the
// rebuild for a bulk read plus bounds checks on restore.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Snapshot magic numbers: the single-index stream and the sharded
// container.
var (
	snapshotMagic = [8]byte{'T', 'Q', 'S', 'N', 'A', 'P', '0', '2'}
	shardedMagic  = [8]byte{'T', 'Q', 'S', 'H', 'R', 'D', '0', '1'}
)

// ErrBadSnapshot is returned when a snapshot stream is malformed or its
// checksum does not match.
var ErrBadSnapshot = errors.New("trajcover: invalid snapshot")

// WriteSnapshot serializes the index (configuration and trajectories) to
// w. The stream is framed with a magic header and a CRC32 trailer.
func (x *Index) WriteSnapshot(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(snapshotMagic[:]); err != nil {
		return err
	}
	tree := x.engine.Tree()
	header := []uint64{
		uint64(tree.Variant()),
		uint64(tree.Ordering()),
		uint64(tree.Beta()),
		math.Float64bits(tree.Bounds().MinX),
		math.Float64bits(tree.Bounds().MinY),
		math.Float64bits(tree.Bounds().MaxX),
		math.Float64bits(tree.Bounds().MaxY),
		uint64(tree.MaxDepth()),
		uint64(x.set.Len()),
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	for _, t := range x.set.All {
		if err := writeTrajectory(bw, t); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	// Trailer: checksum of everything written so far, outside the
	// checksummed stream itself.
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// writeTrajectory encodes one trajectory: uint32 id, uint32 point count,
// then the points as float64 x/y pairs.
func writeTrajectory(w io.Writer, t *Trajectory) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(t.ID)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(t.Len())); err != nil {
		return err
	}
	for _, p := range t.Points {
		if err := binary.Write(w, binary.LittleEndian, p.X); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, p.Y); err != nil {
			return err
		}
	}
	return nil
}

// trajectorySize returns the encoded byte size of writeTrajectory's
// output — used to length-prefix shard frames without buffering them.
func trajectorySize(t *Trajectory) uint64 {
	return 4 + 4 + 16*uint64(t.Len())
}

// readTrajectory decodes one trajectory written by writeTrajectory.
func readTrajectory(r io.Reader, i uint64) (*Trajectory, error) {
	var id, npts uint32
	if err := binary.Read(r, binary.LittleEndian, &id); err != nil {
		return nil, fmt.Errorf("%w: truncated trajectory %d", ErrBadSnapshot, i)
	}
	if err := binary.Read(r, binary.LittleEndian, &npts); err != nil {
		return nil, fmt.Errorf("%w: truncated trajectory %d", ErrBadSnapshot, i)
	}
	if npts < 2 || npts > 1<<24 {
		return nil, fmt.Errorf("%w: trajectory %d has %d points", ErrBadSnapshot, i, npts)
	}
	pts := make([]geo.Point, npts)
	for j := range pts {
		if err := binary.Read(r, binary.LittleEndian, &pts[j].X); err != nil {
			return nil, fmt.Errorf("%w: truncated points", ErrBadSnapshot)
		}
		if err := binary.Read(r, binary.LittleEndian, &pts[j].Y); err != nil {
			return nil, fmt.Errorf("%w: truncated points", ErrBadSnapshot)
		}
	}
	t, err := trajectory.New(trajectory.ID(id), pts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return t, nil
}

// hashReader hashes exactly the bytes its consumer reads, regardless of
// any read-ahead the underlying reader performs — required so a trailing
// checksum can be read outside the hashed region.
type hashReader struct {
	r   io.Reader
	crc io.Writer
}

func (h *hashReader) Read(p []byte) (int, error) {
	n, err := h.r.Read(p)
	if n > 0 {
		h.crc.Write(p[:n])
	}
	return n, err
}

// maxTrajectories bounds the per-stream (and per-frame) trajectory count
// a reader will believe, so corrupt counts fail fast instead of
// attempting absurd allocations.
const maxTrajectories = 1 << 31

// ReadSnapshot restores an Index written by WriteSnapshot, rebuilding the
// TQ-tree over the stored trajectories. Sharded snapshots are detected
// and rejected with a pointer to ReadShardedSnapshot.
func ReadSnapshot(r io.Reader) (*Index, error) {
	base := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	br := &hashReader{r: base, crc: crc}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if magic == shardedMagic || magic == shardedFrozenMagic {
		return nil, fmt.Errorf("%w: sharded snapshot; use ReadShardedSnapshot or ReadFrozenShardedSnapshot", ErrBadSnapshot)
	}
	if magic == frozenMagic {
		return nil, fmt.Errorf("%w: frozen snapshot; use ReadFrozenSnapshot", ErrBadSnapshot)
	}
	if magic == liveMagic {
		return nil, fmt.Errorf("%w: live snapshot; use ReadLiveSnapshot", ErrBadSnapshot)
	}
	if magic != snapshotMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	var header [9]uint64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
		}
	}
	n := header[8]
	opts := IndexOptions{
		Variant:  Variant(header[0]),
		Ordering: Ordering(header[1]),
		Beta:     int(header[2]),
		MaxDepth: int(header[7]),
		Bounds: geo.Rect{
			MinX: math.Float64frombits(header[3]),
			MinY: math.Float64frombits(header[4]),
			MaxX: math.Float64frombits(header[5]),
			MaxY: math.Float64frombits(header[6]),
		},
	}
	if n > maxTrajectories {
		return nil, fmt.Errorf("%w: implausible trajectory count %d", ErrBadSnapshot, n)
	}
	users := make([]*Trajectory, 0, n)
	for i := uint64(0); i < n; i++ {
		t, err := readTrajectory(br, i)
		if err != nil {
			return nil, err
		}
		users = append(users, t)
	}
	want := crc.Sum32()
	var got uint32
	// The trailer is outside the hashed region: read it from the base
	// reader, not through the hashReader.
	if err := binary.Read(base, binary.LittleEndian, &got); err != nil {
		return nil, fmt.Errorf("%w: missing checksum", ErrBadSnapshot)
	}
	if got != want {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadSnapshot)
	}
	return NewIndex(users, opts)
}

// WriteSnapshot serializes the sharded index to w as a multi-shard
// container: a CRC'd shared header followed by one length-prefixed,
// individually CRC'd trajectory frame per shard. Per-frame checksums let
// a reader localize corruption to one shard, and the length prefixes let
// tooling skip frames without decoding them.
func (x *ShardedIndex) WriteSnapshot(w io.Writer) error {
	parts := x.s.Partition()
	eng := x.s.Engine(0)
	bounds := x.s.Bounds()
	kind := x.s.PartitionerKind()

	// Shared header, hashed into its own CRC.
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	if _, err := bw.Write(shardedMagic[:]); err != nil {
		return err
	}
	header := []uint64{
		uint64(eng.Tree().Variant()),
		uint64(eng.Tree().Ordering()),
		uint64(eng.Tree().Beta()),
		math.Float64bits(bounds.MinX),
		math.Float64bits(bounds.MinY),
		math.Float64bits(bounds.MaxX),
		math.Float64bits(bounds.MaxY),
		uint64(eng.Tree().MaxDepth()),
		uint64(len(parts)),
	}
	for _, v := range header {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(kind))); err != nil {
		return err
	}
	if _, err := bw.WriteString(kind); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}

	// Per-shard frames: uint64 payload length, payload (uint64 count +
	// trajectories), uint32 payload CRC.
	for _, part := range parts {
		payloadLen := uint64(8)
		for _, t := range part {
			payloadLen += trajectorySize(t)
		}
		if err := binary.Write(w, binary.LittleEndian, payloadLen); err != nil {
			return err
		}
		fcrc := crc32.NewIEEE()
		fw := bufio.NewWriter(io.MultiWriter(w, fcrc))
		if err := binary.Write(fw, binary.LittleEndian, uint64(len(part))); err != nil {
			return err
		}
		for _, t := range part {
			if err := writeTrajectory(fw, t); err != nil {
				return err
			}
		}
		if err := fw.Flush(); err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, fcrc.Sum32()); err != nil {
			return err
		}
	}
	return nil
}

// ReadShardedSnapshot restores a ShardedIndex written by
// (*ShardedIndex).WriteSnapshot, rebuilding each shard's TQ-tree from its
// own frame — the recorded partition is reproduced verbatim, so the
// partitioner is never re-run. Snapshots recorded with a custom
// partitioner restore fully for serving but reject further Inserts.
func ReadShardedSnapshot(r io.Reader) (*ShardedIndex, error) {
	base := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	br := &hashReader{r: base, crc: crc}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	if magic == snapshotMagic || magic == frozenMagic {
		return nil, fmt.Errorf("%w: single-index snapshot; use ReadSnapshot or ReadFrozenSnapshot", ErrBadSnapshot)
	}
	if magic == shardedFrozenMagic {
		return nil, fmt.Errorf("%w: frozen sharded snapshot; use ReadFrozenShardedSnapshot", ErrBadSnapshot)
	}
	if magic == liveMagic {
		return nil, fmt.Errorf("%w: live snapshot; use ReadLiveSnapshot", ErrBadSnapshot)
	}
	if magic != shardedMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	var header [9]uint64
	for i := range header {
		if err := binary.Read(br, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrBadSnapshot)
		}
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

	nShards := header[8]
	const maxShards = 1 << 16
	if nShards == 0 || nShards > maxShards {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrBadSnapshot, nShards)
	}
	parts := make([][]*Trajectory, nShards)
	for s := uint64(0); s < nShards; s++ {
		var payloadLen uint64
		if err := binary.Read(base, binary.LittleEndian, &payloadLen); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d", ErrBadSnapshot, s)
		}
		fcrc := crc32.NewIEEE()
		fr := &hashReader{r: io.LimitReader(base, int64(payloadLen)), crc: fcrc}
		var count uint64
		if err := binary.Read(fr, binary.LittleEndian, &count); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d", ErrBadSnapshot, s)
		}
		// The smallest encodable trajectory is 40 bytes (id + count + 2
		// points), so the frame length bounds a plausible count — a
		// corrupt count field must fail here, before the allocation
		// below could ask for gigabytes.
		if count > maxTrajectories || payloadLen < 8 || count > (payloadLen-8)/40 {
			return nil, fmt.Errorf("%w: implausible trajectory count %d in frame %d", ErrBadSnapshot, count, s)
		}
		part := make([]*Trajectory, 0, count)
		for i := uint64(0); i < count; i++ {
			t, err := readTrajectory(fr, i)
			if err != nil {
				return nil, fmt.Errorf("frame %d: %w", s, err)
			}
			part = append(part, t)
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
		parts[s] = part
	}

	part, _ := shard.PartitionerOf(string(kindBuf))
	s, err := shard.FromPartition(parts, shard.Options{
		Partitioner: part,
		Tree: tqtree.Options{
			Variant:  tqtree.Variant(header[0]),
			Ordering: tqtree.Ordering(header[1]),
			Beta:     int(header[2]),
			MaxDepth: int(header[7]),
			Bounds: geo.Rect{
				MinX: math.Float64frombits(header[3]),
				MinY: math.Float64frombits(header[4]),
				MaxX: math.Float64frombits(header[5]),
				MaxY: math.Float64frombits(header[6]),
			},
		},
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newShardedIndex(s), nil
}
