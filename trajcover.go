// Package trajcover is a Go library for trajectory coverage queries in
// spatial databases, implementing the TQ-tree index and query algorithms
// of "The Maximum Trajectory Coverage Query in Spatial Databases"
// (Ali et al., 2018, arXiv:1804.00599):
//
//   - kMaxRRST — the k facilities (e.g. bus routes) with the highest
//     service value to a set of user trajectories (TopK).
//   - MaxkCovRST — the size-k facility subset with the highest combined
//     service, a non-submodular NP-hard problem answered with a two-step
//     greedy approximation (MaxCoverage).
//
// Two index types answer both through one query surface: Index, which
// takes Insert and Delete under concurrent reads and is made durable with
// a write-ahead log by OpenIndex, and FrozenIndex, which is immutable.
// Either holds one shard or several (IndexOptions.Shards), and either is
// a set of frozen columnar TQ-trees, one per shard, written to and
// restored from snapshots.
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

// IndexOptions configures NewIndex and NewFrozenIndex. The zero value
// builds one shard: a TwoPoint, Z-ordered TQ-tree with β = 64 and
// data-derived bounds — the paper's default TQ(Z) configuration.
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
	// Parallelism bounds the goroutines construction may use, shared
	// across the shard builds (0 means GOMAXPROCS, 1 forces serial). The
	// built index is identical regardless of the setting.
	Parallelism int
	// Shards is the number of TQ-trees to partition across (0 means 1).
	Shards int
	// Partitioner assigns trajectories to shards (nil means
	// HashPartitioner()).
	Partitioner Partitioner
	// Policy tunes an Index's background compaction. NewFrozenIndex does
	// not read it.
	Policy LivePolicy
}

func (o IndexOptions) shardOptions() shard.Options {
	return shard.Options{
		Shards:      o.Shards,
		Partitioner: o.Partitioner,
		Tree: tqtree.Options{
			Variant:     o.Variant,
			Ordering:    o.Ordering,
			Beta:        o.Beta,
			MaxDepth:    o.MaxDepth,
			Bounds:      o.Bounds,
			Parallelism: o.Parallelism,
		},
	}
}

// ServedUser is one user of a ServedUsers answer.
type ServedUser = query.UserService

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
}

// solveCoverage runs opts.Algorithm over src; the two-step greedy, which
// also needs an index's exact pass, is the caller's.
func solveCoverage(src maxcov.CoverageSource, facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error) {
	switch opts.Algorithm {
	case FullGreedy:
		return maxcov.Greedy(src, facilities, k, q.params())
	case Genetic:
		return maxcov.Genetic(src, facilities, k, q.params(), opts.Genetic)
	case Exact:
		return maxcov.Exact(src, facilities, k, q.params())
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
// paper's G-BL method when opts.Algorithm is FullGreedy. The baseline has
// no kMaxRRST pass to prune with, so TwoStepGreedy runs FullGreedy.
func (b *Baseline) MaxCoverage(facilities []*Facility, k int, q Query, opts CoverageOptions) (CoverageResult, error) {
	if opts.Algorithm == TwoStepGreedy {
		opts.Algorithm = FullGreedy
	}
	return solveCoverage(maxcov.BaselineSource{Baseline: b.bl}, facilities, k, q, opts)
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
