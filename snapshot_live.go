package trajcover

// Live snapshot persistence (TQLIVE01). A live index checkpoints
// without stopping writes: the writer captures each shard's current
// epoch — one atomic pointer load per shard — and serializes from those
// immutable values while inserts, deletes, and even background rebuilds
// keep running. Each shard's frame records the full epoch state:
//
//	TQLIVE01 — live container: CRC'd shared header (shard count,
//	           partitioner kind), then one length-prefixed,
//	           individually CRC'd frame per shard holding the frozen
//	           base payload (the TQSNAP03 column encoding), the
//	           tombstone IDs (sorted, so output is deterministic), and
//	           the delta trajectories.
//
// Restoring reassembles the epochs verbatim — frozen columns bulk-read
// and bounds-checked, tombstones and delta revalidated against the base
// — so a restored index resumes exactly the logical corpus the capture
// saw, still mutable, with its pending churn intact for the next
// rebuild to fold.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/trajectory"
)

var liveMagic = [8]byte{'T', 'Q', 'L', 'I', 'V', 'E', '0', '1'}

// livePayloadSize returns the exact encoded size of one epoch's frame
// payload — used to length-prefix frames without buffering them.
func livePayloadSize(ep *query.Epoch) uint64 {
	size := frozenPayloadSize(ep.Base().Frozen())
	size += 8 + 4*uint64(ep.TombstoneCount())
	size += pad8(4 * uint64(ep.TombstoneCount())) // realign after the u32 tombstones
	size += 8
	for _, u := range ep.Delta() {
		size += frozenTrajectorySize(u)
	}
	return size
}

// writeLivePayload encodes one epoch: frozen base columns, sorted
// tombstone IDs (padded back to 8-alignment), then the delta
// trajectories in overlay order using the frozen record format
// (cached length/MBR), so a mapped open can alias delta points too.
func writeLivePayload(w io.Writer, ep *query.Epoch) error {
	if err := writeFrozenPayload(w, ep.Base().Frozen()); err != nil {
		return err
	}
	dead := make([]uint32, 0, ep.TombstoneCount())
	for id := range ep.Tombstones() {
		dead = append(dead, uint32(id))
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	cw := newColWriter(w)
	cw.u64(uint64(len(dead)))
	for _, id := range dead {
		cw.u32(id)
	}
	cw.pad(i32Pad(uint64(len(dead))))
	delta := ep.Delta()
	cw.u64(uint64(len(delta)))
	for _, u := range delta {
		cw.trajRecord(u.ID, u.Points, u.Length(), u.MBR())
	}
	cw.flush()
	return cw.err
}

// readLivePayload decodes one epoch frame and reassembles the epoch,
// revalidating tombstones and delta against the restored base.
func readLivePayload(r io.Reader) (*query.Epoch, error) {
	f, err := readFrozenPayload(r)
	if err != nil {
		return nil, err
	}
	cr := newColReader(r)
	var nDead uint64
	if err := cr.u64(&nDead); err != nil {
		return nil, fmt.Errorf("%w: truncated tombstones", ErrBadSnapshot)
	}
	if nDead > uint64(f.NumTrajectories()) {
		return nil, fmt.Errorf("%w: %d tombstones over %d base trajectories", ErrBadSnapshot, nDead, f.NumTrajectories())
	}
	deadIDs, err := cr.i32s(int(nDead))
	if err != nil {
		return nil, fmt.Errorf("%w: truncated tombstones", ErrBadSnapshot)
	}
	dead := make(map[trajectory.ID]struct{}, nDead)
	for _, id := range deadIDs {
		dead[trajectory.ID(uint32(id))] = struct{}{}
	}
	if uint64(len(dead)) != nDead {
		return nil, fmt.Errorf("%w: duplicate tombstone ids", ErrBadSnapshot)
	}
	if err := cr.skip(i32Pad(nDead)); err != nil {
		return nil, err
	}
	var nDelta uint64
	if err := cr.u64(&nDelta); err != nil {
		return nil, fmt.Errorf("%w: truncated delta", ErrBadSnapshot)
	}
	if nDelta > maxTrajectories {
		return nil, fmt.Errorf("%w: implausible delta count %d", ErrBadSnapshot, nDelta)
	}
	delta := make([]*trajectory.Trajectory, 0, minInt(int(nDelta), 1<<16))
	for i := uint64(0); i < nDelta; i++ {
		u, err := readFrozenTrajectoryRecord(cr, i)
		if err != nil {
			return nil, err
		}
		delta = append(delta, u)
	}
	ep, err := query.NewEpoch(query.NewFrozenEngine(f, nil), delta, dead, 0)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return ep, nil
}

// writeLiveSnapshot serializes a captured epoch set as a TQLIVE01
// container.
func writeLiveSnapshot(w io.Writer, eps []*query.Epoch, kind string) error {
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(w, crc)
	if _, err := mw.Write(liveMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(mw, binary.LittleEndian, uint64(len(eps))); err != nil {
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
	// Realign so every frame's payload starts 8-aligned in the file —
	// the mapped reader aliases columns at file offsets. See
	// snapshot_frozen.go.
	if _, err := w.Write(make([]byte, pad8(uint64(len(kind))))); err != nil {
		return err
	}
	for _, ep := range eps {
		if err := binary.Write(w, binary.LittleEndian, livePayloadSize(ep)); err != nil {
			return err
		}
		fcrc := crc32.NewIEEE()
		if err := writeLivePayload(io.MultiWriter(w, fcrc), ep); err != nil {
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

// WriteSnapshot checkpoints the live index as a TQLIVE01 stream. The
// epoch set is captured atomically per shard up front, so the snapshot
// is a consistent cut of each shard while writes continue to land in
// successor epochs.
func (x *LiveShardedIndex) WriteSnapshot(w io.Writer) error {
	return writeLiveSnapshot(w, x.epochs(), x.s.PartitionerKind())
}

// WriteSnapshot checkpoints the live index as a single-shard TQLIVE01
// stream; restore with ReadLiveSnapshot.
func (x *LiveIndex) WriteSnapshot(w io.Writer) error {
	return writeLiveSnapshot(w, x.epochs(), x.s.PartitionerKind())
}

// ReadLiveSnapshot restores a live index written by WriteSnapshot —
// including any pending delta and tombstones, which the next rebuild
// folds as usual. pol tunes the restored index's compaction policy
// (policy is operational state, not data, so it is not recorded).
// A single-shard stream (a LiveIndex checkpoint) restores as a
// one-shard LiveShardedIndex, which serves identically.
func ReadLiveSnapshot(r io.Reader, pol LivePolicy) (*LiveShardedIndex, error) {
	base := bufio.NewReader(r)
	crc := crc32.NewIEEE()
	br := &hashReader{r: base, crc: crc}
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	switch magic {
	case liveMagic:
	case snapshotMagic, frozenMagic:
		return nil, fmt.Errorf("%w: single-index snapshot; use ReadSnapshot or ReadFrozenSnapshot", ErrBadSnapshot)
	case shardedMagic, shardedFrozenMagic:
		return nil, fmt.Errorf("%w: sharded snapshot; use ReadShardedSnapshot or ReadFrozenShardedSnapshot", ErrBadSnapshot)
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
	eps := make([]*query.Epoch, 0, nShards)
	for s := uint64(0); s < nShards; s++ {
		var payloadLen uint64
		if err := binary.Read(base, binary.LittleEndian, &payloadLen); err != nil {
			return nil, fmt.Errorf("%w: truncated frame %d", ErrBadSnapshot, s)
		}
		fcrc := crc32.NewIEEE()
		fr := &hashReader{r: io.LimitReader(base, int64(payloadLen)), crc: fcrc}
		ep, err := readLivePayload(fr)
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", s, err)
		}
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
		eps = append(eps, ep)
	}

	part, _ := shard.PartitionerOf(string(kindBuf))
	l, err := shard.LiveFromEpochs(eps, part, pol.policy())
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSnapshot, err)
	}
	return newLiveShardedIndex(l), nil
}
