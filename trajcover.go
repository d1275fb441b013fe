// Package trajcover is a Go library for trajectory coverage queries in
// spatial databases, implementing the TQ-tree index and query algorithms
// of "The Maximum Trajectory Coverage Query in Spatial Databases"
// (Ali et al., 2018, arXiv:1804.00599):
//
//   - kMaxRRST — the k facilities (e.g. bus routes) with the highest
//     service value to a set of user trajectories (Index.TopK).
//   - MaxkCovRST — the size-k facility subset with the highest combined
//     service, a non-submodular NP-hard problem answered with a two-step
//     greedy approximation (Index.MaxCoverage).
//
// Quick start:
//
//	users := trajcover.TaxiTrips(trajcover.NewYorkCity(), 50000, 1)
//	routes := trajcover.BusRoutes(trajcover.NewYorkCity(), 200, 32, 2)
//	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{})
//	if err != nil { ... }
//	top, err := idx.TopK(routes, 8, trajcover.Query{Scenario: trajcover.Binary, Psi: 300})
//
// Service semantics follow the paper's three scenarios: Binary (both trip
// endpoints within ψ of a stop), PointCount (fraction of points served),
// and Length (fraction of trajectory length served).
package trajcover

import (
	"fmt"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/maxcov"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/simplify"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Core geometric and data-model types, re-exported for API users.
type (
	// Point is a planar location (meters).
	Point = geo.Point
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// ID identifies a trajectory or facility.
	ID = trajectory.ID
	// Trajectory is a user trajectory (≥ 2 ordered points).
	Trajectory = trajectory.Trajectory
	// Facility is a candidate facility route with stop points.
	Facility = trajectory.Facility
	// Scenario selects the service-value semantics.
	Scenario = service.Scenario
	// Variant selects how the index decomposes trajectories.
	Variant = tqtree.Variant
	// Ordering selects the per-node list organization.
	Ordering = tqtree.Ordering
	// Ranked is one facility of a top-k answer.
	Ranked = query.Result
	// QueryMetrics reports the work a query performed.
	QueryMetrics = query.Metrics
	// CoverageResult is a MaxkCovRST answer.
	CoverageResult = maxcov.Result
	// GeneticOptions tunes the genetic MaxkCovRST solver.
	GeneticOptions = maxcov.GeneticOptions
)

// Service scenarios (Section II of the paper).
const (
	// Binary serves a user iff both source and destination are within ψ
	// of the facility's stops (Scenario 1).
	Binary = service.Binary
	// PointCount serves the fraction of a user's points within ψ
	// (Scenario 2).
	PointCount = service.PointCount
	// Length serves the fraction of a user's length on segments whose
	// endpoints are both within ψ (Scenario 3).
	Length = service.Length
)

// Index variants (Section III).
const (
	// TwoPoint indexes source/destination only — the paper's base
	// structure, exact for Binary service.
	TwoPoint = tqtree.TwoPoint
	// Segmented indexes every trajectory segment separately (S-TQ).
	Segmented = tqtree.Segmented
	// FullTrajectory stores whole trajectories at their lowest
	// containing node (F-TQ) — exact for every scenario.
	FullTrajectory = tqtree.FullTrajectory
)

// List orderings.
const (
	// BasicOrdering keeps flat per-node lists — the paper's TQ(B).
	BasicOrdering = tqtree.Basic
	// ZOrdering keeps z-ordered β-buckets — the paper's TQ(Z).
	ZOrdering = tqtree.ZOrder
)

// Pt constructs a Point.
func Pt(x, y float64) Point { return geo.Pt(x, y) }

// NewTrajectory builds a user trajectory from at least two points.
func NewTrajectory(id ID, points []Point) (*Trajectory, error) {
	return trajectory.New(id, points)
}

// NewFacility builds a facility route from its stop points.
func NewFacility(id ID, stops []Point) (*Facility, error) {
	return trajectory.NewFacility(id, stops)
}

// Query bundles the query-time parameters.
type Query struct {
	// Scenario selects the service semantics.
	Scenario Scenario
	// Psi is the serving distance threshold ψ (same unit as the data).
	Psi float64
}

func (q Query) params() query.Params {
	return query.Params{Scenario: q.Scenario, Psi: q.Psi}
}

// IndexOptions configures NewIndex. The zero value builds a TwoPoint,
// Z-ordered index with β = 64 and data-derived bounds — the paper's
// default TQ(Z) configuration.
type IndexOptions struct {
	Variant  Variant
	Ordering Ordering
	// Beta is the paper's block size β (0 means 64).
	Beta int
	// MaxDepth bounds quadtree depth (0 means 20).
	MaxDepth int
	// Bounds fixes the root space; the zero Rect derives it from the
	// data. Fix it generously when inserting after construction.
	Bounds Rect
	// Parallelism bounds the goroutines index construction may use
	// (0 means GOMAXPROCS, 1 forces serial). The built index is
	// identical regardless of the setting.
	Parallelism int
}

// Index is a TQ-tree over a set of user trajectories, answering both
// kMaxRRST and MaxkCovRST queries. It is a ShardedIndex of one shard: the
// tree is the one the single-tree build makes, and every query runs the
// same scatter path as the sharded and live types.
type Index struct {
	querier
	s *shard.Sharded
}

func (o IndexOptions) treeOptions() tqtree.Options {
	return tqtree.Options{
		Variant:     o.Variant,
		Ordering:    o.Ordering,
		Beta:        o.Beta,
		MaxDepth:    o.MaxDepth,
		Bounds:      o.Bounds,
		Parallelism: o.Parallelism,
	}
}

// NewIndex builds a TQ-tree index over the given user trajectories. The
// index keeps its own list of them: later Inserts and Deletes leave the
// users slice as the caller passed it.
func NewIndex(users []*Trajectory, opts IndexOptions) (*Index, error) {
	s, err := shard.Build(users, shard.Options{Shards: 1, Tree: opts.treeOptions()})
	if err != nil {
		return nil, err
	}
	return &Index{querier: querier{s}, s: s}, nil
}

// Insert adds a user trajectory to the index; a duplicate ID is rejected
// with ErrDuplicateID. Not safe concurrently with queries.
func (x *Index) Insert(u *Trajectory) error { return x.s.Insert(u) }

// Delete removes a user trajectory from the index, reporting whether it
// was present.
func (x *Index) Delete(u *Trajectory) bool {
	e := x.s.Engine(0)
	if e.Users().ByID(u.ID) == nil || !e.Tree().Delete(u) {
		return false
	}
	e.Users().Remove(u.ID)
	return true
}

// ServedUser is one user of a ServedUsers answer.
type ServedUser = query.UserService

// ServedUsers returns every user with positive service from the facility
// — the reverse range search underlying kMaxRRST — ordered by service
// value descending.
func (x *Index) ServedUsers(f *Facility, q Query) ([]ServedUser, error) {
	us, _, err := x.s.Engine(0).ServedUsers(f, q.params())
	return us, err
}

// Len returns the number of indexed user trajectories.
func (x *Index) Len() int { return x.s.Len() }

// Partitioner assigns trajectories to shards; see HashPartitioner and
// GridPartitioner for the built-in strategies.
type Partitioner = shard.Partitioner

// HashPartitioner partitions by user-ID hash: balanced shards, uniform
// per-shard query fan-out.
func HashPartitioner() Partitioner { return shard.Hash{} }

// GridPartitioner partitions by geographic cell of each trajectory's
// source point: localized queries do their work in few shards and the
// rest answer at once, at the cost of load skew on concentrated data.
func GridPartitioner() Partitioner { return shard.Grid{} }

// ShardOptions configures NewShardedIndex. The zero value builds a
// single hash shard with default index options — equivalent to NewIndex.
type ShardOptions struct {
	// Shards is the number of TQ-trees to partition across (0 means 1).
	Shards int
	// Partitioner assigns trajectories to shards (nil means
	// HashPartitioner()).
	Partitioner Partitioner
	// Index configures every shard's tree. Index.Parallelism is the
	// total build budget shared across shard builds.
	Index IndexOptions
}

func (o ShardOptions) shardOptions() shard.Options {
	return shard.Options{
		Shards:      o.Shards,
		Partitioner: o.Partitioner,
		Tree:        o.Index.treeOptions(),
	}
}

// ShardedIndex partitions user trajectories across several TQ-trees and
// answers kMaxRRST queries by scatter-gather: a query fans out to every
// shard, exact per-shard values are summed, and top-k is the
// sort-and-cut of those sums. Use it when one tree is too large to
// build, rebuild, or hold comfortably — shards build in parallel and
// rebuild independently.
//
// Answers match the single-tree Index exactly for integral scenarios
// (Binary; every scenario over integral service values) and up to
// floating-point summation order otherwise.
type ShardedIndex struct {
	querier
	s *shard.Sharded
}

func newShardedIndex(s *shard.Sharded) *ShardedIndex {
	return &ShardedIndex{querier: querier{s}, s: s}
}

// NewShardedIndex partitions users with opts.Partitioner and builds one
// TQ-tree per shard, in parallel within opts.Index.Parallelism.
func NewShardedIndex(users []*Trajectory, opts ShardOptions) (*ShardedIndex, error) {
	s, err := shard.Build(users, opts.shardOptions())
	if err != nil {
		return nil, err
	}
	return newShardedIndex(s), nil
}

// NumShards returns the number of shards.
func (x *ShardedIndex) NumShards() int { return x.s.NumShards() }

// ShardSizes returns the number of trajectories in each shard.
func (x *ShardedIndex) ShardSizes() []int { return x.s.Sizes() }

// Len returns the total number of indexed user trajectories.
func (x *ShardedIndex) Len() int { return x.s.Len() }

// Insert routes a user trajectory to its shard and inserts it there.
// Like Index.Insert it is not safe concurrently with queries, but only
// the target shard is affected. A duplicate ID is rejected with
// ErrDuplicateID.
func (x *ShardedIndex) Insert(u *Trajectory) error { return x.s.Insert(u) }

// CoverageAlgorithm selects the MaxkCovRST solver.
type CoverageAlgorithm int

const (
	// TwoStepGreedy is the paper's solution: prune to the k' highest
	// individually-serving facilities with kMaxRRST, then run greedy.
	TwoStepGreedy CoverageAlgorithm = iota
	// FullGreedy runs the straightforward greedy over all facilities.
	FullGreedy
	// Genetic runs a genetic algorithm (the paper's Gn-TQ comparison).
	Genetic
	// Exact enumerates all size-k subsets (small inputs only).
	Exact
	// Annealing runs simulated annealing over k-subsets (the paper
	// names it among the offline alternatives to its greedy solution).
	Annealing
)

// String implements fmt.Stringer.
func (a CoverageAlgorithm) String() string {
	switch a {
	case TwoStepGreedy:
		return "two-step-greedy"
	case FullGreedy:
		return "full-greedy"
	case Genetic:
		return "genetic"
	case Exact:
		return "exact"
	case Annealing:
		return "annealing"
	}
	return fmt.Sprintf("CoverageAlgorithm(%d)", int(a))
}

// CoverageOptions tunes MaxCoverage. The zero value runs the paper's
// two-step greedy with the default candidate width.
type CoverageOptions struct {
	Algorithm CoverageAlgorithm
	// KPrime is the two-step candidate width k' (0 means
	// max(2k, k+8) capped at the number of facilities).
	KPrime int
	// GeneticOptions applies when Algorithm == Genetic.
	Genetic GeneticOptions
	// Anneal applies when Algorithm == Annealing.
	Anneal AnnealOptions
}

// AnnealOptions tunes the simulated-annealing solver.
type AnnealOptions = maxcov.AnnealOptions

// MaxCoverage answers the MaxkCovRST query: the size-k facility subset
// with the (approximately) maximum combined service, where users may be
// served jointly by multiple facilities.
func (x *Index) MaxCoverage(facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error) {
	e := x.s.Engine(0)
	src := maxcov.EngineSource{Engine: e}
	switch opts.Algorithm {
	case TwoStepGreedy:
		return maxcov.TwoStepGreedy(e, facilities, k, opts.KPrime, q.params())
	case FullGreedy:
		return maxcov.Greedy(src, facilities, k, q.params())
	case Genetic:
		return maxcov.Genetic(src, facilities, k, q.params(), opts.Genetic)
	case Exact:
		return maxcov.Exact(src, facilities, k, q.params())
	case Annealing:
		return maxcov.Anneal(src, facilities, k, q.params(), opts.Anneal)
	}
	return CoverageResult{}, fmt.Errorf("trajcover: unknown coverage algorithm %d", int(opts.Algorithm))
}

// Baseline is the paper's BL comparison method: a traditional point
// quadtree over user-trajectory points queried once per facility stop.
// It answers the same queries as Index, slower — it exists so downstream
// users can reproduce the paper's comparisons.
type Baseline struct {
	bl  *query.Baseline
	set *trajectory.Set
}

// NewBaseline builds the baseline point index. variant selects the
// objective translation so results are comparable with the matching
// Index variant.
func NewBaseline(users []*Trajectory, variant Variant) (*Baseline, error) {
	set, err := trajectory.NewSet(users)
	if err != nil {
		return nil, err
	}
	return &Baseline{bl: query.NewBaseline(set, variant), set: set}, nil
}

// ServiceValue computes SO(U, f) by per-stop range queries.
func (b *Baseline) ServiceValue(f *Facility, q Query) (float64, error) {
	return b.bl.ServiceValue(f, q.params())
}

// TopK evaluates every facility and returns the k best.
func (b *Baseline) TopK(facilities []*Facility, k int, q Query) ([]Ranked, error) {
	return b.bl.TopK(facilities, k, q.params())
}

// MaxCoverage runs a MaxkCovRST solver over baseline coverage — the
// paper's G-BL method when opts.Algorithm is FullGreedy.
func (b *Baseline) MaxCoverage(facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error) {
	src := maxcov.BaselineSource{Baseline: b.bl}
	switch opts.Algorithm {
	case TwoStepGreedy, FullGreedy:
		return maxcov.Greedy(src, facilities, k, q.params())
	case Genetic:
		return maxcov.Genetic(src, facilities, k, q.params(), opts.Genetic)
	case Exact:
		return maxcov.Exact(src, facilities, k, q.params())
	case Annealing:
		return maxcov.Anneal(src, facilities, k, q.params(), opts.Anneal)
	}
	return CoverageResult{}, fmt.Errorf("trajcover: unknown coverage algorithm %d", int(opts.Algorithm))
}

// City is a synthetic city model for workload generation.
type City = datagen.City

// DefaultPsi is a walkable serving distance (300 m) matching the
// generated cities' meter scale.
const DefaultPsi = datagen.DefaultPsi

// NewYorkCity returns the synthetic New York stand-in (~30 × 40 km).
func NewYorkCity() *City { return datagen.NewYork() }

// BeijingCity returns the synthetic Beijing stand-in (~40 × 40 km).
func BeijingCity() *City { return datagen.Beijing() }

// TaxiTrips generates n point-to-point trips (NYT-like workload).
func TaxiTrips(c *City, n int, seed int64) []*Trajectory {
	return datagen.TaxiTrips(c, n, seed)
}

// Checkins generates n multipoint check-in sequences (NYF-like workload)
// with 2..maxPts points each.
func Checkins(c *City, n, maxPts int, seed int64) []*Trajectory {
	return datagen.Checkins(c, n, maxPts, seed)
}

// GPSTraces generates n long GPS traces (BJG-like workload) with
// minPts..maxPts points each.
func GPSTraces(c *City, n, minPts, maxPts int, seed int64) []*Trajectory {
	return datagen.GPSTraces(c, n, minPts, maxPts, seed)
}

// BusRoutes generates candidate facility routes with the given number of
// stops each.
func BusRoutes(c *City, nRoutes, stopsPerRoute int, seed int64) []*Facility {
	return datagen.BusRoutes(c, nRoutes, stopsPerRoute, seed)
}

// Simplify reduces raw GPS trajectories with Douglas-Peucker polyline
// simplification at the given tolerance (same unit as the coordinates).
// Use it to preprocess dense traces (e.g. Geolife) before indexing.
func Simplify(ts []*Trajectory, epsilon float64) ([]*Trajectory, error) {
	return simplify.Set(ts, epsilon)
}
