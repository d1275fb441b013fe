package trajcover

// A shard's frame (TQLIVE02; snapshot.go has the container). An Index
// checkpoints without stopping writes: the writer captures
// each shard's current epoch — one atomic pointer load per shard — and
// serializes from those immutable values while inserts, deletes, and even
// background rebuilds keep running. Each shard's frame records the full
// epoch state: the frozen base payload, the tombstone IDs (sorted, so
// output is deterministic), and the delta trajectories as a trajectory
// section like the base's.
//
// Restoring reassembles the epochs verbatim — frozen columns copied or
// aliased and bounds-checked, tombstones and delta revalidated against
// the base — so a restored index resumes exactly the logical corpus the
// capture saw, still mutable, with its pending churn intact for the next
// rebuild to fold.

import (
	"fmt"
	"io"

	"github.com/trajcover/trajcover/internal/mmap"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// livePayloadSize returns the exact encoded size of one epoch's frame
// payload — used to length-prefix frames without buffering them.
func livePayloadSize(ep *query.Epoch) uint64 {
	size := frozenPayloadSize(ep.Base())
	size += 8 + 4*uint64(ep.TombstoneCount())
	size += pad8(4 * uint64(ep.TombstoneCount())) // realign after the u32 tombstones
	np := 0
	for _, u := range ep.Delta() {
		np += u.Len()
	}
	return size + 16 + tableSize(uint64(len(ep.Delta())), uint64(np))
}

// writeLivePayload encodes one epoch: frozen base columns, sorted
// tombstone IDs (padded back to 8-alignment), then the delta's row and
// point counts and its trajectories in overlay order, as a trajectory
// section.
func writeLivePayload(w io.Writer, ep *query.Epoch) error {
	if err := writeFrozenPayload(w, ep.Base()); err != nil {
		return err
	}
	delta := ep.Delta()
	tb := trajectory.NewTableBuilder(len(delta), 0)
	for _, u := range delta {
		tb.Append(u)
	}
	tab, err := tb.Build()
	if err != nil {
		return err
	}
	dead := ep.TombstoneIDs()
	cw := newColWriter(w)
	cw.u64(uint64(len(dead)))
	words(cw, dead)
	cw.pad(i32Pad(uint64(len(dead))))
	cw.u64(uint64(tab.Len()))
	cw.u64(uint64(tab.TotalPoints()))
	cw.table(tab)
	cw.flush()
	return cw.err
}

// readShardPayload decodes one shard's frame and reassembles its epoch:
// a frozen base, then the tombstones and delta after it, which NewEpoch
// revalidates against the restored base, refusing unknown and repeated
// tombstone IDs. The delta section is copied to the heap under either
// owner: the overlay is small and outlives any base.
func readShardPayload(c *cursor) (*query.Epoch, error) {
	f, err := readFrozenPayload(c)
	if err != nil {
		return nil, err
	}
	c.pin = nil // the base holds the pin; the rest of the frame is copied
	nDead := c.u64()
	if c.err == nil && nDead > uint64(f.NumTrajectories()) {
		return nil, fmt.Errorf("%w: %d tombstones over %d base trajectories", ErrBadSnapshot, nDead, f.NumTrajectories())
	}
	dead := column(c, nDead, 4, mmap.U32s[trajectory.ID])
	c.take(pad8(4 * nDead))
	nDelta, np := c.u64(), c.u64()
	tab, err := c.table(nDelta, np)
	if err != nil {
		return nil, err
	}
	// One slab of views over the table's rows, which NewTable checked.
	views := make([]trajectory.Trajectory, tab.Len())
	delta := make([]*trajectory.Trajectory, tab.Len())
	for i := range delta {
		delta[i] = &views[i]
		tab.View(int32(i), delta[i])
	}
	ep, err := query.NewEpoch(f, delta, dead, 0)
	return ep, badSnapshot(err)
}

// WriteSnapshot checkpoints the index as a TQLIVE02 stream. The epoch
// set is captured atomically per shard up front, so the snapshot is a
// consistent cut of each shard while writes continue to land in
// successor epochs. Pending writes are recorded as they are; a caller
// that wants every shard's base folded first calls Compact.
func (x *Index) WriteSnapshot(w io.Writer) error {
	return writeLiveSnapshot(w, x.s.Epochs(), x.s.PartitionerKind())
}
