// Package shard partitions a trajectory corpus across one or more
// TQ-trees and serves kMaxRRST queries by scatter-gather: exact service
// values fan out to every shard as one batch and are summed, and top-k is
// the sort-and-cut of those sums (query.Results) — what the distributed
// frontend does over whole processes. Every public index type is one of
// the three forms here (Sharded, Frozen, Live), the single-tree ones with
// one shard, so all answer through scatter. The paper's best-first search
// (Algorithms 3/4) stays on the engines for the figures (scatter.topK).
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
	"slices"
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
// across the whole corpus, exactly as a single-tree build would. The
// index keeps nothing of the users slice itself.
func Build(users []*trajectory.Trajectory, opts Options) (*Sharded, error) {
	opts = opts.withDefaults()
	parts, bounds := partition(users, opts)
	return fromParts(parts, bounds, opts)
}

// partition assigns users to opts.Shards parts over the shared root space
// (opts.Tree.Bounds extended to the data). opts must carry its defaults.
func partition(users []*trajectory.Trajectory, opts Options) ([][]*trajectory.Trajectory, geo.Rect) {
	bounds := opts.Tree.Bounds
	for _, u := range users {
		bounds = bounds.ExtendRect(u.MBR())
	}
	parts := make([][]*trajectory.Trajectory, opts.Shards)
	for _, u := range users {
		i := clampShard(opts.Partitioner.Assign(u, bounds, opts.Shards), opts.Shards)
		parts[i] = append(parts[i], u)
	}
	return parts, bounds
}

// buildTrees calls build once per part with the tree options for that
// part's build; build makes the shard's index. Shards build concurrently —
// each over a disjoint trajectory slice — with the total goroutine budget
// split between cross-shard fan-out and each tree's own parallel build, so
// Tree.Parallelism bounds live goroutines whichever way the shards divide
// the work.
func buildTrees(parts [][]*trajectory.Trajectory, bounds geo.Rect, opts Options, build func(i int, treeOpts tqtree.Options) error) error {
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

	sem := make(chan struct{}, across)
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem; wg.Done() }()
			errs[i] = build(i, treeOpts)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fromParts builds every shard's set and tree. A set rejects a duplicate
// ID within its shard; the merge of the shards' sorted ID columns rejects
// one that two shards share, which every query would double-count.
func fromParts(parts [][]*trajectory.Trajectory, bounds geo.Rect, opts Options) (*Sharded, error) {
	cols := make([][]trajectory.ID, len(parts))
	for i, part := range parts {
		cols[i] = make([]trajectory.ID, len(part))
		for j, u := range part {
			cols[i][j] = u.ID
		}
		slices.Sort(cols[i])
	}
	if id, _, dup := trajectory.FirstDuplicateAcross(cols); dup {
		return nil, fmt.Errorf("shard: duplicate id %d", id)
	}
	s := &Sharded{opts: opts, bounds: bounds, engines: make([]*query.Engine, len(parts))}
	s.scatter = fixedUnits(s.engines)
	err := buildTrees(parts, bounds, opts, func(i int, treeOpts tqtree.Options) error {
		tree, err := tqtree.Build(parts[i], treeOpts)
		if err != nil {
			return err
		}
		set, err := trajectory.NewSet(parts[i])
		if err != nil {
			return err
		}
		s.engines[i] = query.NewEngine(tree, set)
		return nil
	})
	if err != nil {
		return nil, err
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

// PartitionerKind returns the configured partitioner's kind.
func (s *Sharded) PartitionerKind() string { return s.opts.Partitioner.Kind() }

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

// Insert routes a trajectory to its shard and inserts it there; an ID
// already indexed is rejected with ErrDuplicateID. It is not safe
// concurrently with queries — but only the target shard is touched, so
// serving systems can quiesce one shard at a time.
func (s *Sharded) Insert(u *trajectory.Trajectory) error {
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
