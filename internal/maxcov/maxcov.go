// Package maxcov implements MaxkCovRST: choosing the size-k facility
// subset maximizing the combined (AGG) service value. The paper proves
// the objective is non-submodular and NP-hard and answers it with a
// two-step greedy approximation; this package provides:
//
//   - Greedy: the straightforward greedy over all facilities (the paper's
//     G-BL / G-TQ building block).
//   - TwoStep: the paper's solution — first prune to the k' highest
//     individually-serving facilities with the served kMaxRRST pass, then
//     run greedy on the pruned set (G-TQ(B), G-TQ(Z)).
//   - Genetic: the Gn-TQ(Z) comparison point, a genetic algorithm over
//     k-subsets.
//   - Exact: exhaustive subset enumeration, the approximation-ratio
//     reference for Figure 11.
package maxcov

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// CoverageSource produces per-facility coverage masks: a TQ-tree index's
// shards captured once (*shard.Source, the source every public index
// type answers through) or the baseline (BaselineSource).
type CoverageSource interface {
	// Coverage returns which points of which users the facility covers.
	Coverage(f *trajectory.Facility, p query.Params) (service.Coverage, error)
	// User resolves a covered user's ID to its trajectory.
	User(id trajectory.ID) *trajectory.Trajectory
	// Variant selects the objective translation for mask values.
	Variant() tqtree.Variant
}

// BaselineSource adapts the point-quadtree baseline into a CoverageSource.
type BaselineSource struct {
	Baseline *query.Baseline
}

// Coverage implements CoverageSource.
func (s BaselineSource) Coverage(f *trajectory.Facility, p query.Params) (service.Coverage, error) {
	return s.Baseline.Coverage(f, p)
}

// User implements CoverageSource.
func (s BaselineSource) User(id trajectory.ID) *trajectory.Trajectory {
	return s.Baseline.Users().ByID(id)
}

// Variant implements CoverageSource.
func (s BaselineSource) Variant() tqtree.Variant { return s.Baseline.Variant() }

// Result is a MaxkCovRST answer.
type Result struct {
	// Facilities is the chosen subset, in selection order for greedy
	// solvers.
	Facilities []*trajectory.Facility
	// Value is the combined service value SO(U, F').
	Value float64
	// UsersServed counts users with positive combined service — the
	// quality metric of the paper's Figure 10(b)/(d).
	UsersServed int
}

// covCache precomputes and stores per-facility coverages, with every
// covered user resolved once.
type covCache struct {
	variant tqtree.Variant
	p       query.Params
	covs    map[trajectory.ID]service.Coverage
	users   map[trajectory.ID]*trajectory.Trajectory

	// Binary fast path (non-Segmented variants): per-facility bitsets of
	// users whose source / destination the facility covers, over a dense
	// index of touched users. A subset's combined value is then
	// popcount(OR(src) & OR(dst)) — no mask merging.
	binIdx map[trajectory.ID]int // user id -> dense bit index
	binSrc map[trajectory.ID][]uint64
	binDst map[trajectory.ID][]uint64
}

func newCovCache(src CoverageSource, facilities []*trajectory.Facility, p query.Params) (*covCache, error) {
	if err := distinctIDs(facilities); err != nil {
		return nil, err
	}
	c := &covCache{
		variant: src.Variant(),
		p:       p,
		covs:    make(map[trajectory.ID]service.Coverage, len(facilities)),
		users:   map[trajectory.ID]*trajectory.Trajectory{},
	}
	for _, f := range facilities {
		cov, err := src.Coverage(f, p)
		if err != nil {
			return nil, fmt.Errorf("maxcov: coverage of facility %d: %w", f.ID, err)
		}
		c.covs[f.ID] = cov
		for id := range cov {
			if _, ok := c.users[id]; !ok {
				c.users[id] = src.User(id)
			}
		}
	}
	if p.Scenario == service.Binary && c.variant != tqtree.Segmented {
		c.buildBinaryPack(facilities)
	}
	return c, nil
}

// distinctIDs rejects a facility list that names one ID twice: coverages
// are keyed by facility ID, so the two would be scored as one.
func distinctIDs(facilities []*trajectory.Facility) error {
	seen := make(map[trajectory.ID]struct{}, len(facilities))
	for _, f := range facilities {
		if _, dup := seen[f.ID]; dup {
			return fmt.Errorf("maxcov: duplicate facility id %d", f.ID)
		}
		seen[f.ID] = struct{}{}
	}
	return nil
}

// buildBinaryPack assembles the Binary fast-path bitsets.
func (c *covCache) buildBinaryPack(facilities []*trajectory.Facility) {
	c.binIdx = map[trajectory.ID]int{}
	for _, cov := range c.covs {
		for id := range cov {
			if _, ok := c.binIdx[id]; !ok {
				c.binIdx[id] = len(c.binIdx)
			}
		}
	}
	words := (len(c.binIdx) + 63) / 64
	c.binSrc = make(map[trajectory.ID][]uint64, len(facilities))
	c.binDst = make(map[trajectory.ID][]uint64, len(facilities))
	for _, f := range facilities {
		srcBits := make([]uint64, words)
		dstBits := make([]uint64, words)
		for id, m := range c.covs[f.ID] {
			bit := c.binIdx[id]
			if m.Get(0) {
				srcBits[bit/64] |= 1 << (uint(bit) % 64)
			}
			if m.Get(c.users[id].Len() - 1) {
				dstBits[bit/64] |= 1 << (uint(bit) % 64)
			}
		}
		c.binSrc[f.ID] = srcBits
		c.binDst[f.ID] = dstBits
	}
}

// binarySubsetValue computes the Binary combined value via bitsets.
// Buffers are reused across calls; not safe for concurrent use.
func (c *covCache) binarySubsetValue(subset []*trajectory.Facility, srcBuf, dstBuf []uint64) float64 {
	for i := range srcBuf {
		srcBuf[i], dstBuf[i] = 0, 0
	}
	for _, f := range subset {
		for i, w := range c.binSrc[f.ID] {
			srcBuf[i] |= w
		}
		for i, w := range c.binDst[f.ID] {
			dstBuf[i] |= w
		}
	}
	n := 0
	for i := range srcBuf {
		n += bits.OnesCount64(srcBuf[i] & dstBuf[i])
	}
	return float64(n)
}

// valueOf returns the objective value of a single user's mask.
func (c *covCache) valueOf(u *trajectory.Trajectory, m service.Mask) float64 {
	return query.ObjectiveFromMask(c.variant, c.p.Scenario, u, m)
}

// subsetValue computes SO(U, F') for a subset by mask union.
func (c *covCache) subsetValue(subset []*trajectory.Facility) float64 {
	merged := service.Coverage{}
	for _, f := range subset {
		merged.Merge(c.covs[f.ID])
	}
	var total float64
	for id, m := range merged {
		total += c.valueOf(c.users[id], m)
	}
	return total
}

// usersServed counts users with positive combined value for a subset.
func (c *covCache) usersServed(subset []*trajectory.Facility) int {
	merged := service.Coverage{}
	for _, f := range subset {
		merged.Merge(c.covs[f.ID])
	}
	n := 0
	for id, m := range merged {
		if c.valueOf(c.users[id], m) > 0 {
			n++
		}
	}
	return n
}

// greedyState tracks the merged coverage and per-user current values so
// marginal gains touch only the users a candidate facility covers.
type greedyState struct {
	cache  *covCache
	merged service.Coverage
	curVal map[trajectory.ID]float64
	total  float64
}

func newGreedyState(cache *covCache) *greedyState {
	return &greedyState{
		cache:  cache,
		merged: service.Coverage{},
		curVal: map[trajectory.ID]float64{},
	}
}

// marginal computes SO(U, chosen ∪ {f}) − SO(U, chosen) without mutating
// the state.
func (g *greedyState) marginal(f *trajectory.Facility) float64 {
	cov := g.cache.covs[f.ID]
	var delta float64
	for id, m := range cov {
		var unioned service.Mask
		if cur, ok := g.merged[id]; ok {
			unioned = cur.Clone()
			unioned.Or(m)
		} else {
			unioned = m
		}
		delta += g.cache.valueOf(g.cache.users[id], unioned) - g.curVal[id]
	}
	return delta
}

// add commits f to the chosen set.
func (g *greedyState) add(f *trajectory.Facility) {
	cov := g.cache.covs[f.ID]
	g.merged.Merge(cov)
	for id := range cov {
		v := g.cache.valueOf(g.cache.users[id], g.merged[id])
		g.total += v - g.curVal[id]
		g.curVal[id] = v
	}
}

// Greedy runs the straightforward greedy of Section V-A: iteratively add
// the facility with the highest marginal combined service. Ties break on
// facility ID for determinism.
func Greedy(src CoverageSource, facilities []*trajectory.Facility, k int, p query.Params) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	cache, err := newCovCache(src, facilities, p)
	if err != nil {
		return Result{}, err
	}
	return greedyFromCache(cache, facilities, k), nil
}

func greedyFromCache(cache *covCache, facilities []*trajectory.Facility, k int) Result {
	st := newGreedyState(cache)
	remaining := append([]*trajectory.Facility(nil), facilities...)
	sort.Slice(remaining, func(i, j int) bool { return remaining[i].ID < remaining[j].ID })
	var chosen []*trajectory.Facility
	for len(chosen) < k && len(remaining) > 0 {
		bestIdx := -1
		bestGain := -1.0
		for i, f := range remaining {
			if gain := st.marginal(f); gain > bestGain {
				bestGain = gain
				bestIdx = i
			}
		}
		f := remaining[bestIdx]
		st.add(f)
		chosen = append(chosen, f)
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return Result{
		Facilities:  chosen,
		Value:       st.total,
		UsersServed: cache.usersServed(chosen),
	}
}

// DefaultCandidateSize returns the paper's k' (the two-step pruning
// width): at least k, by default max(2k, k+8), capped at n.
func DefaultCandidateSize(k, n int) int {
	kp := 2 * k
	if kp < k+8 {
		kp = k + 8
	}
	if kp > n {
		kp = n
	}
	return kp
}

// TwoStep is the paper's MaxkCovRST solution: step 1 selects the kPrime
// facilities with the highest individual service — the served exact pass
// over src, sorted and cut by query.Results; step 2 runs the greedy on
// that candidate set. kPrime <= 0 selects DefaultCandidateSize(k,
// len(facilities)).
func TwoStep(src *shard.Source, facilities []*trajectory.Facility, k, kPrime int, p query.Params) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if err := distinctIDs(facilities); err != nil {
		return Result{}, err
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	if kPrime <= 0 {
		kPrime = DefaultCandidateSize(k, len(facilities))
	}
	kPrime = min(max(kPrime, k), len(facilities))
	vals, err := src.ServiceValues(facilities, p)
	if err != nil {
		return Result{}, err
	}
	top := query.Results(facilities, vals, kPrime)
	candidates := make([]*trajectory.Facility, len(top))
	for i, r := range top {
		candidates[i] = r.Facility
	}
	cache, err := newCovCache(src, candidates, p)
	if err != nil {
		return Result{}, err
	}
	return greedyFromCache(cache, candidates, k), nil
}

// TwoStepGreedy is TwoStep over the pointer tree eng holds, frozen first.
func TwoStepGreedy(eng *query.Engine, facilities []*trajectory.Facility, k, kPrime int, p query.Params) (Result, error) {
	fz, err := tqtree.Freeze(eng.Tree())
	if err != nil {
		return Result{}, err
	}
	f, err := shard.FrozenFromEngines([]*query.FrozenEngine{query.NewFrozenEngine(fz, nil)}, fz.Bounds(), "")
	if err != nil {
		return Result{}, err
	}
	return TwoStep(f.Source(), facilities, k, kPrime, p)
}

// Exact enumerates every size-k subset and returns the best — feasible
// only for small instances; it guards against combinatorial blow-up.
func Exact(src CoverageSource, facilities []*trajectory.Facility, k int, p query.Params) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	const maxSubsets = 5_000_000
	if c := binomial(len(facilities), k); c < 0 || c > maxSubsets {
		return Result{}, fmt.Errorf("maxcov: exact enumeration of C(%d,%d) subsets exceeds limit %d",
			len(facilities), k, maxSubsets)
	}
	cache, err := newCovCache(src, facilities, p)
	if err != nil {
		return Result{}, err
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	best := Result{Value: -1}
	subset := make([]*trajectory.Facility, k)
	var srcBuf, dstBuf []uint64
	if cache.binIdx != nil {
		words := (len(cache.binIdx) + 63) / 64
		srcBuf = make([]uint64, words)
		dstBuf = make([]uint64, words)
	}
	for {
		for i, j := range idx {
			subset[i] = facilities[j]
		}
		var v float64
		if srcBuf != nil {
			v = cache.binarySubsetValue(subset, srcBuf, dstBuf)
		} else {
			v = cache.subsetValue(subset)
		}
		if v > best.Value {
			best.Value = v
			best.Facilities = append(best.Facilities[:0:0], subset...)
		}
		// Next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == len(facilities)-k+i {
			i--
		}
		if i < 0 {
			break
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
	best.UsersServed = cache.usersServed(best.Facilities)
	return best, nil
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c < 0 || c > 1<<40 {
			return -1
		}
	}
	return c
}

// GeneticOptions tunes the genetic solver.
type GeneticOptions struct {
	// Population size (0 means 32).
	Population int
	// Generations to evolve (0 means 20, the paper's iteration count).
	Generations int
	// MutationRate is the per-offspring gene replacement probability
	// (0 means 0.2).
	MutationRate float64
	// Seed drives the deterministic RNG.
	Seed int64
}

func (o *GeneticOptions) defaults() {
	if o.Population <= 0 {
		o.Population = 32
	}
	if o.Generations <= 0 {
		o.Generations = 20
	}
	if o.MutationRate <= 0 {
		o.MutationRate = 0.2
	}
}

// Genetic is the Gn-TQ(Z) comparison: a genetic algorithm over k-subsets
// with tournament selection, union crossover, and single-gene mutation.
// Fitness evaluations reuse precomputed coverage masks.
func Genetic(src CoverageSource, facilities []*trajectory.Facility, k int, p query.Params, opts GeneticOptions) (Result, error) {
	if k <= 0 || len(facilities) == 0 {
		return Result{}, nil
	}
	if k > len(facilities) {
		k = len(facilities)
	}
	opts.defaults()
	cache, err := newCovCache(src, facilities, p)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))

	type individual struct {
		genes   []int // indexes into facilities, sorted, distinct
		fitness float64
	}
	randomSubset := func() []int {
		perm := rng.Perm(len(facilities))[:k]
		sort.Ints(perm)
		return perm
	}
	var srcBuf, dstBuf []uint64
	if cache.binIdx != nil {
		words := (len(cache.binIdx) + 63) / 64
		srcBuf = make([]uint64, words)
		dstBuf = make([]uint64, words)
	}
	subsetBuf := make([]*trajectory.Facility, k)
	evaluate := func(genes []int) float64 {
		for i, g := range genes {
			subsetBuf[i] = facilities[g]
		}
		if srcBuf != nil {
			return cache.binarySubsetValue(subsetBuf, srcBuf, dstBuf)
		}
		return cache.subsetValue(subsetBuf)
	}

	pop := make([]individual, opts.Population)
	for i := range pop {
		g := randomSubset()
		pop[i] = individual{genes: g, fitness: evaluate(g)}
	}
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.fitness > best.fitness {
			best = ind
		}
	}

	tournament := func() individual {
		winner := pop[rng.Intn(len(pop))]
		for i := 0; i < 2; i++ {
			c := pop[rng.Intn(len(pop))]
			if c.fitness > winner.fitness {
				winner = c
			}
		}
		return winner
	}
	crossover := func(a, b []int) []int {
		union := map[int]bool{}
		for _, g := range a {
			union[g] = true
		}
		for _, g := range b {
			union[g] = true
		}
		pool := make([]int, 0, len(union))
		for g := range union {
			pool = append(pool, g)
		}
		sort.Ints(pool)
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		child := append([]int(nil), pool[:k]...)
		sort.Ints(child)
		return child
	}
	mutate := func(genes []int) {
		if rng.Float64() >= opts.MutationRate {
			return
		}
		has := map[int]bool{}
		for _, g := range genes {
			has[g] = true
		}
		for tries := 0; tries < 10; tries++ {
			repl := rng.Intn(len(facilities))
			if !has[repl] {
				genes[rng.Intn(len(genes))] = repl
				sort.Ints(genes)
				return
			}
		}
	}

	for gen := 0; gen < opts.Generations; gen++ {
		next := make([]individual, 0, opts.Population)
		next = append(next, best) // elitism
		for len(next) < opts.Population {
			a, b := tournament(), tournament()
			child := crossover(a.genes, b.genes)
			mutate(child)
			ind := individual{genes: child, fitness: evaluate(child)}
			if ind.fitness > best.fitness {
				best = ind
			}
			next = append(next, ind)
		}
		pop = next
	}

	chosen := make([]*trajectory.Facility, k)
	for i, g := range best.genes {
		chosen[i] = facilities[g]
	}
	return Result{
		Facilities:  chosen,
		Value:       best.fitness,
		UsersServed: cache.usersServed(chosen),
	}, nil
}
