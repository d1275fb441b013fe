package trajcover

// A shard's frame (TQLIVE02; snapshot.go has the container). An Index
// checkpoints without stopping writes: the writer captures
// each shard's current epoch — one atomic pointer load per shard — and
// serializes from those immutable values while inserts, deletes, and even
// background rebuilds keep running. Each shard's frame records the full
// epoch state: the frozen base payload, the tombstone IDs (sorted, so
// output is deterministic), and the delta trajectories as a trajectory
// section like the base's. The frame is written by one function,
// shardFrame.write, twice: a counting pass gives the frame's length
// prefix, then a pass that writes each column as it sits in memory
// (snapshot_frozen.go's frame), so no frame is buffered and no size is
// worked out by hand.
//
// Restoring reassembles the epochs verbatim — frozen columns copied or
// aliased and bounds-checked, tombstones and delta revalidated against
// the base — so a restored index resumes exactly the logical corpus the
// capture saw, still mutable, with its pending churn intact for the next
// rebuild to fold.

import (
	"fmt"
	"io"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// shardFrame is what one epoch's frame records beyond its base, built
// once for both of the frame's passes: the sorted tombstone IDs and the
// delta as a table.
type shardFrame struct {
	base  *tqtree.Frozen
	dead  []trajectory.ID
	delta *trajectory.Table
}

func shardFrameOf(ep *query.Epoch) (shardFrame, error) {
	tb := trajectory.NewTableBuilder(len(ep.Delta()), 0)
	for _, u := range ep.Delta() {
		tb.Append(u)
	}
	delta, err := tb.Build()
	return shardFrame{base: ep.Base(), dead: ep.TombstoneIDs(), delta: delta}, err
}

// write writes one epoch's frame: frozen base columns, sorted tombstone
// IDs (padded back to 8-alignment), then the delta's row and point counts
// and its trajectories in overlay order, as a trajectory section.
func (s shardFrame) write(f *frame) {
	writeFrozenPayload(f, s.base)
	put(f, []uint64{uint64(len(s.dead))})
	put(f, s.dead)
	f.align()
	put(f, []uint64{uint64(s.delta.Len()), uint64(s.delta.TotalPoints())})
	putTable(f, s.delta)
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
	dead := column[trajectory.ID](c, nDead)
	c.align()
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
