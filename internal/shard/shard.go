// Package shard partitions a trajectory corpus across several TQ-trees
// and serves kMaxRRST queries by scatter-gather: exact service values fan
// out to every shard as one batch and are summed; top-k sums each
// facility's per-shard seed upper bound, orders the facilities by it and
// evaluates them in threshold rounds (query.TopKRounds, the schedule the
// distributed frontend runs over whole processes), so a facility whose
// bound cannot reach the k-th exact value is never evaluated anywhere —
// the paper's branch-and-bound lifted one level up. The best-first search
// itself (Algorithms 3/4) stays on the single-tree engines.
//
// Sharding is what keeps datasets larger than one tree's comfortable
// in-memory size — and rebuilds — from being monolithic: shards build in
// parallel, rebuild independently, and answer concurrently. Because user
// trajectories are disjoint across shards, a facility's service value is
// the sum of its per-shard service values, so the merged answers match
// the single-tree path (exactly for integral scenarios such as Binary;
// up to float summation order otherwise).
package shard

import (
	"fmt"
	"runtime"
	"sync"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Options configures Build.
type Options struct {
	// Shards is the number of TQ-trees to partition across. 0 means 1.
	Shards int
	// Partitioner assigns trajectories to shards. nil means Hash{}.
	Partitioner Partitioner
	// Tree configures every shard's TQ-tree. Tree.Bounds is extended to
	// the union of the data so all shards share one root space;
	// Tree.Parallelism is the total goroutine budget across all shard
	// builds (0 means GOMAXPROCS).
	Tree tqtree.Options
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.Partitioner == nil {
		o.Partitioner = Hash{}
	}
	return o
}

// Sharded is a set of TQ-trees jointly indexing one trajectory corpus,
// answering the same queries as a single tree by scatter-gather (the
// embedded scatter over one engine per shard).
type Sharded struct {
	scatter[*query.Engine]
	opts    Options
	bounds  geo.Rect
	engines []*query.Engine
}

// Build partitions users with opts.Partitioner and builds one TQ-tree
// per shard, constructing shards in parallel within the
// opts.Tree.Parallelism goroutine budget. Duplicate IDs are rejected
// across the whole corpus, exactly as a single-tree build would.
func Build(users []*trajectory.Trajectory, opts Options) (*Sharded, error) {
	opts = opts.withDefaults()
	seen := make(map[trajectory.ID]struct{}, len(users))
	for _, u := range users {
		if _, dup := seen[u.ID]; dup {
			return nil, fmt.Errorf("shard: duplicate id %d", u.ID)
		}
		seen[u.ID] = struct{}{}
	}
	bounds := opts.Tree.Bounds
	for _, u := range users {
		bounds = bounds.ExtendRect(u.MBR())
	}
	parts := make([][]*trajectory.Trajectory, opts.Shards)
	for _, u := range users {
		i := clampShard(opts.Partitioner.Assign(u, bounds, opts.Shards), opts.Shards)
		parts[i] = append(parts[i], u)
	}
	return fromParts(parts, bounds, opts)
}

// FromPartition builds a Sharded from an existing per-shard partition —
// the snapshot restore path, which must reproduce the recorded partition
// without re-running the partitioner. Unlike Build, a nil
// opts.Partitioner is kept nil (the partition may have been produced by
// a partitioner this build does not know); such an index serves queries
// but rejects Inserts.
func FromPartition(parts [][]*trajectory.Trajectory, opts Options) (*Sharded, error) {
	opts.Shards = len(parts)
	if opts.Shards == 0 {
		return nil, fmt.Errorf("shard: empty partition")
	}
	// IDs must be unique across the whole corpus, not just within each
	// part — per-shard sets only catch intra-shard duplicates, and a
	// cross-shard duplicate would be double-counted by every query.
	total := 0
	for _, part := range parts {
		total += len(part)
	}
	seen := make(map[trajectory.ID]struct{}, total)
	bounds := opts.Tree.Bounds
	for _, part := range parts {
		for _, u := range part {
			if _, dup := seen[u.ID]; dup {
				return nil, fmt.Errorf("shard: duplicate id %d across shards", u.ID)
			}
			seen[u.ID] = struct{}{}
			bounds = bounds.ExtendRect(u.MBR())
		}
	}
	return fromParts(parts, bounds, opts)
}

// fromParts builds every shard's set and tree. Shards build concurrently
// — each over a disjoint trajectory slice — with the total goroutine
// budget split between cross-shard fan-out and each tree's own parallel
// build, so Tree.Parallelism bounds live goroutines whichever way the
// shards divide the work.
func fromParts(parts [][]*trajectory.Trajectory, bounds geo.Rect, opts Options) (*Sharded, error) {
	budget := opts.Tree.Parallelism
	if budget <= 0 {
		budget = runtime.GOMAXPROCS(0)
	}
	across := budget
	if across > len(parts) {
		across = len(parts)
	}
	perTree := budget / across
	if perTree < 1 {
		perTree = 1
	}
	treeOpts := opts.Tree
	treeOpts.Bounds = bounds
	treeOpts.Parallelism = perTree

	s := &Sharded{opts: opts, bounds: bounds, engines: make([]*query.Engine, len(parts))}
	s.scatter = fixedUnits(s.engines)
	sem := make(chan struct{}, across)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, part := range parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, part []*trajectory.Trajectory) {
			defer func() { <-sem; wg.Done() }()
			set, err := trajectory.NewSet(part)
			if err != nil {
				errs[i] = err
				return
			}
			tree, err := tqtree.Build(part, treeOpts)
			if err != nil {
				errs[i] = err
				return
			}
			s.engines[i] = query.NewEngine(tree, set)
		}(i, part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

func clampShard(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.engines) }

// Len returns the total number of indexed trajectories.
func (s *Sharded) Len() int {
	n := 0
	for _, e := range s.engines {
		n += e.Users().Len()
	}
	return n
}

// Sizes returns the number of trajectories in each shard.
func (s *Sharded) Sizes() []int {
	out := make([]int, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Users().Len()
	}
	return out
}

// Bounds returns the shared root space of every shard's tree.
func (s *Sharded) Bounds() geo.Rect { return s.bounds }

// Engine returns the query engine of shard i — for diagnostics and for
// per-shard maintenance (the rebuild-and-swap path operates one shard at
// a time).
func (s *Sharded) Engine(i int) *query.Engine { return s.engines[i] }

// PartitionerKind returns the configured partitioner's kind, or "" when
// none survives (a snapshot restored from an unknown custom kind).
func (s *Sharded) PartitionerKind() string {
	if s.opts.Partitioner == nil {
		return ""
	}
	return s.opts.Partitioner.Kind()
}

// Partition returns each shard's trajectories, in shard order — the
// payload a snapshot records.
func (s *Sharded) Partition() [][]*trajectory.Trajectory {
	out := make([][]*trajectory.Trajectory, len(s.engines))
	for i, e := range s.engines {
		out[i] = e.Users().All
	}
	return out
}

// ByID returns the trajectory with the given id from whichever shard
// holds it, or nil.
func (s *Sharded) ByID(id trajectory.ID) *trajectory.Trajectory {
	for _, e := range s.engines {
		if t := e.Users().ByID(id); t != nil {
			return t
		}
	}
	return nil
}

// Insert routes a trajectory to its shard and inserts it there. Like the
// single-tree Insert it is not safe concurrently with queries — but only
// the target shard is touched, so serving systems can quiesce one shard
// at a time. Restored snapshots of unknown partitioner kinds return
// ErrImmutable: the recorded partition could not be extended
// consistently — convert such an index with Live to delete (and, with a
// known partitioner, insert) again.
func (s *Sharded) Insert(u *trajectory.Trajectory) error {
	if s.opts.Partitioner == nil {
		return fmt.Errorf("%w: cannot route insert", ErrImmutable)
	}
	if s.ByID(u.ID) != nil {
		return fmt.Errorf("%w: %d", ErrDuplicateID, u.ID)
	}
	e := s.engines[clampShard(s.opts.Partitioner.Assign(u, s.bounds, len(s.engines)), len(s.engines))]
	if err := e.Users().Add(u); err != nil {
		return err
	}
	e.Tree().Insert(u)
	return nil
}
