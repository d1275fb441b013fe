package shard

import (
	"fmt"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Frozen is a set of frozen columnar TQ-trees jointly indexing one
// trajectory corpus — the read-optimized serving form of Sharded. It
// answers the same scatter-gather queries through the embedded scatter
// over one frozen engine per shard, is immutable (no Insert), and each
// shard serializes nearly verbatim into the TQSHRD02 snapshot container.
type Frozen struct {
	scatter[*query.FrozenEngine]
	bounds  geo.Rect
	kind    string
	engines []*query.FrozenEngine
}

// Freeze produces the frozen serving form of the sharded index: every
// shard's pointer tree is frozen into its columnar layout. The source
// index is only read and remains fully usable; dropping it afterwards
// releases all pointer-tree storage.
func (s *Sharded) Freeze() (*Frozen, error) {
	engines := make([]*query.FrozenEngine, len(s.engines))
	for i, e := range s.engines {
		fz, err := tqtree.Freeze(e.Tree())
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		engines[i] = query.NewFrozenEngine(fz, e.Users())
	}
	return newFrozen(engines, s.bounds, s.PartitionerKind()), nil
}

func newFrozen(engines []*query.FrozenEngine, bounds geo.Rect, kind string) *Frozen {
	return &Frozen{scatter: fixedUnits(engines), bounds: bounds, kind: kind, engines: engines}
}

// FrozenFromEngines assembles a Frozen from per-shard frozen engines —
// the snapshot restore path. kind records the partitioner the partition
// was produced with ("" when unknown); bounds is the shared root space.
func FrozenFromEngines(engines []*query.FrozenEngine, bounds geo.Rect, kind string) (*Frozen, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("shard: no frozen shards")
	}
	// IDs must be unique across the whole corpus, exactly as the mutable
	// build checks — a cross-shard duplicate would be double-counted.
	total := 0
	for _, e := range engines {
		total += e.Users().Len()
	}
	seen := make(map[trajectory.ID]struct{}, total)
	for i, e := range engines {
		for _, u := range e.Users().All {
			if _, dup := seen[u.ID]; dup {
				return nil, fmt.Errorf("shard: duplicate id %d across frozen shards (shard %d)", u.ID, i)
			}
			seen[u.ID] = struct{}{}
		}
	}
	return newFrozen(engines, bounds, kind), nil
}

// NumShards returns the shard count.
func (f *Frozen) NumShards() int { return len(f.engines) }

// Len returns the total number of indexed trajectories.
func (f *Frozen) Len() int {
	n := 0
	for _, e := range f.engines {
		n += e.Users().Len()
	}
	return n
}

// Sizes returns the number of trajectories in each shard.
func (f *Frozen) Sizes() []int {
	out := make([]int, len(f.engines))
	for i, e := range f.engines {
		out[i] = e.Users().Len()
	}
	return out
}

// Bounds returns the shared root space of every shard's index.
func (f *Frozen) Bounds() geo.Rect { return f.bounds }

// PartitionerKind returns the kind of the partitioner the shards were
// produced with, or "" when unknown.
func (f *Frozen) PartitionerKind() string { return f.kind }

// Engine returns the frozen query engine of shard i.
func (f *Frozen) Engine(i int) *query.FrozenEngine { return f.engines[i] }

// Partition returns each shard's trajectories in the frozen trajectory-
// table order — the payload the TQSHRD02 snapshot records.
func (f *Frozen) Partition() [][]*trajectory.Trajectory {
	out := make([][]*trajectory.Trajectory, len(f.engines))
	for i, e := range f.engines {
		out[i] = e.Frozen().Trajectories()
	}
	return out
}
