// Package shard partitions a trajectory corpus across one or more frozen
// TQ-trees and serves kMaxRRST queries by scatter-gather: exact service
// values fan out to every shard as one batch and are summed, and top-k is
// the sort-and-cut of those sums (query.Results) — what the distributed
// frontend does over whole processes. Coverage (MaxkCovRST, served users)
// is every shard's coverage table joined, read through one Source. The
// public index type, Index, is one Live, with one shard or several: every
// shard is one query.Epoch over a frozen base, and a shard that has taken
// no write since its base was built or restored has nothing pending. Live
// is mutable; immutability is not a property of the type, so a caller
// that wants an index to stay as it is does not write to it. The paper's
// best-first search (Algorithms 3/4) stays in internal/query, for the
// figures.
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
	"runtime"
	"sync"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Options configures BuildLive.
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

// partition assigns users to opts.Shards parts over the shared root space
// (opts.Tree.Bounds extended to the data). opts must carry its defaults.
// One part is users itself, with opts.Tree.Bounds as it is: the build
// extends it by the same MBRs, so the root space is the same union
// without a second pass. Several are counted, then filled, each user
// assigned once.
func partition(users []*trajectory.Trajectory, opts Options) ([][]*trajectory.Trajectory, geo.Rect) {
	if opts.Shards == 1 {
		return [][]*trajectory.Trajectory{users}, opts.Tree.Bounds
	}
	bounds := opts.Tree.Bounds
	for _, u := range users {
		bounds = bounds.ExtendRect(u.MBR())
	}
	// One exact allocation a part, where growing it by append copies it
	// and leaves its slack behind.
	count := make([]int, opts.Shards)
	part := make([]int32, len(users))
	for j, u := range users {
		i := opts.Partitioner.Assign(u, bounds, opts.Shards)
		part[j] = int32(i)
		count[i]++
	}
	parts := make([][]*trajectory.Trajectory, opts.Shards)
	for i, n := range count {
		if n > 0 {
			parts[i] = make([]*trajectory.Trajectory, 0, n)
		}
	}
	for j, u := range users {
		parts[part[j]] = append(parts[part[j]], u)
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
