package shard

import (
	"fmt"
	"math"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Partitioner assigns each user trajectory to one of n shards. An
// assignment is deterministic — Build and Insert both consult it, and
// snapshots record only which shard each trajectory landed in, so a
// partitioner never needs to be re-run to restore an index. The set is
// closed: Hash and Grid are the only implementations, so every kind a
// snapshot records maps back through PartitionerOf.
type Partitioner interface {
	// Assign returns the shard in [0, n) for t. bounds is the union of
	// every indexed trajectory's MBR (plus any configured root space),
	// for partitioners that cut geographically.
	Assign(t *trajectory.Trajectory, bounds geo.Rect, n int) int
	// Kind is the stable identifier recorded in snapshot headers
	// ("hash" or "grid").
	Kind() string
	sealed()
}

// Hash partitions by a hash of the trajectory ID — the user-hash
// strategy: shards are balanced regardless of geography, and every shard
// sees the whole city, so per-shard query fan-out is uniform.
type Hash struct{}

// Assign implements Partitioner with HashID.
func (Hash) Assign(t *trajectory.Trajectory, _ geo.Rect, n int) int {
	return HashID(t.ID, n)
}

// HashID is the shard in [0, n) that Hash assigns to trajectory id:
// FNV-1a over the ID's four little-endian bytes. The distributed tier
// routes IDs to shard groups with it too, so a corpus split across
// groups partitions exactly like one process's hash-sharded index.
func HashID(id trajectory.ID, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < 4; i++ {
		h ^= uint32(id) >> (8 * i) & 0xff
		h *= prime32
	}
	return int(h % uint32(n))
}

// Kind implements Partitioner.
func (Hash) Kind() string { return "hash" }

func (Hash) sealed() {}

// Grid partitions by geographic cell: the data bounds are cut into a
// ceil(sqrt(n)) × ceil(sqrt(n)) grid and a trajectory goes to the shard
// of its source point's cell (row-major, modulo n). Queries with small
// EMBRs then do their work in few shards — the rest answer 0 from the
// first node test; the price is load skew when the data is
// geographically concentrated.
type Grid struct{}

// Assign implements Partitioner.
func (Grid) Assign(t *trajectory.Trajectory, bounds geo.Rect, n int) int {
	g := int(math.Ceil(math.Sqrt(float64(n))))
	if g < 1 {
		g = 1
	}
	cx := cellOf(t.Source().X, bounds.MinX, bounds.MaxX, g)
	cy := cellOf(t.Source().Y, bounds.MinY, bounds.MaxY, g)
	return (cy*g + cx) % n
}

// Kind implements Partitioner.
func (Grid) Kind() string { return "grid" }

func (Grid) sealed() {}

// cellOf maps v in [lo, hi] to a cell in [0, g): degenerate or inverted
// ranges collapse to cell 0, and out-of-range points clamp to the edge
// cells so late Inserts outside the original bounds still land somewhere.
func cellOf(v, lo, hi float64, g int) int {
	if hi <= lo {
		return 0
	}
	c := int(float64(g) * (v - lo) / (hi - lo))
	if c < 0 {
		return 0
	}
	if c >= g {
		c = g - 1
	}
	return c
}

// PartitionerOf maps a snapshot-recorded kind back to its partitioner.
// Any other kind is an error: no partitioner writes it.
func PartitionerOf(kind string) (Partitioner, error) {
	switch kind {
	case "hash":
		return Hash{}, nil
	case "grid":
		return Grid{}, nil
	}
	return nil, fmt.Errorf("shard: unknown partitioner kind %q", kind)
}
