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
	"slices"
	"sort"

	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// CoverageSource produces the coverage table of a facility batch: a
// TQ-tree index's shards captured once (*shard.Source, the source every
// public index type answers through) or the baseline (*query.Baseline).
type CoverageSource interface {
	// Cover returns which points of which users each facility covers.
	Cover(facilities []*trajectory.Facility, p query.Params) (*service.CoverTable, error)
	// Variant selects the objective translation for mask values.
	Variant() tqtree.Variant
}

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

// covCache is a facility batch's coverage table and the state the solvers
// read it through. A facility is named by its index in the batch.
type covCache struct {
	t       *service.CoverTable
	variant tqtree.Variant
	sc      service.Scenario
	st      *greedyState

	// Binary fast path (non-Segmented variants): per facility, bitsets over
	// user slots of the users whose source / destination it covers. A
	// subset's combined value is then popcount(OR(src) & OR(dst)) — no
	// mask merging. bin holds facility i's source bits at [2i·words,
	// (2i+1)·words) and its destination bits after them.
	words          int
	bin            []uint64
	srcBuf, dstBuf []uint64
}

func newCovCache(src CoverageSource, facilities []*trajectory.Facility, p query.Params) (*covCache, error) {
	if err := distinctIDs(facilities); err != nil {
		return nil, err
	}
	t, err := src.Cover(facilities, p)
	if err != nil {
		return nil, fmt.Errorf("maxcov: coverage: %w", err)
	}
	c := &covCache{t: t, variant: src.Variant(), sc: p.Scenario}
	c.st = newGreedyState(c)
	if p.Scenario == service.Binary && c.variant != tqtree.Segmented {
		c.words = (len(t.Users) + 63) / 64
		c.bin = make([]uint64, 2*len(facilities)*c.words)
		for i := range facilities {
			src, dst := c.bits(i)
			for _, r := range t.Rows(i) {
				w, bit := r.Slot/64, uint64(1)<<(r.Slot%64)
				if r.Mask.Get(0) {
					src[w] |= bit
				}
				if r.Mask.Get(t.Users[r.Slot].Len() - 1) {
					dst[w] |= bit
				}
			}
		}
		c.srcBuf, c.dstBuf = make([]uint64, c.words), make([]uint64, c.words)
	}
	return c, nil
}

// distinctIDs rejects a facility list that names one ID twice: the two
// would be scored as one facility picked twice.
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

// bits returns facility i's Binary fast-path bitsets.
func (c *covCache) bits(i int) (src, dst []uint64) {
	o := 2 * i * c.words
	return c.bin[o : o+c.words], c.bin[o+c.words : o+2*c.words]
}

// value returns the combined value SO(U, F') of the facilities idx.
// Buffers are reused across calls; not safe for concurrent use.
func (c *covCache) value(idx []int) float64 {
	if c.bin != nil {
		return c.binaryValue(idx)
	}
	c.st.pick(idx)
	return c.st.total
}

// binaryValue is value on the Binary fast path.
func (c *covCache) binaryValue(idx []int) float64 {
	clear(c.srcBuf)
	clear(c.dstBuf)
	for _, i := range idx {
		src, dst := c.bits(i)
		for w := range src {
			c.srcBuf[w] |= src[w]
			c.dstBuf[w] |= dst[w]
		}
	}
	n := 0
	for w := range c.srcBuf {
		n += bits.OnesCount64(c.srcBuf[w] & c.dstBuf[w])
	}
	return float64(n)
}

// greedyState is the combined coverage of a chosen set of facilities: per
// user slot, its unioned mask and that mask's value. Gains and the total
// sum in row order, so every run reports the same bits.
type greedyState struct {
	c      *covCache
	cur    []service.Mask // per slot, carved from one arena
	val    []float64
	total  float64
	chosen []int
	tmp    service.Mask
}

func newGreedyState(c *covCache) *greedyState {
	users := c.t.Users
	words, widest := 0, 0
	for _, u := range users {
		w := (u.Len() + 63) / 64
		words, widest = words+w, max(widest, w)
	}
	g := &greedyState{c: c, cur: make([]service.Mask, len(users)), val: make([]float64, len(users)), tmp: make(service.Mask, widest)}
	arena := make([]uint64, words)
	for s, u := range users {
		w := (u.Len() + 63) / 64
		g.cur[s], arena = arena[:w:w], arena[w:]
	}
	return g
}

// gain returns SO(U, chosen ∪ {i}) − SO(U, chosen) without changing the
// state.
func (g *greedyState) gain(i int) float64 {
	var d float64
	for _, r := range g.c.t.Rows(i) {
		m := g.tmp[:len(r.Mask)]
		for w, cur := range g.cur[r.Slot] {
			m[w] = cur | r.Mask[w]
		}
		d += g.c.valueOf(r.Slot, m) - g.val[r.Slot]
	}
	return d
}

// add commits facility i to the chosen set.
func (g *greedyState) add(i int) {
	for _, r := range g.c.t.Rows(i) {
		g.cur[r.Slot].Or(r.Mask)
		v := g.c.valueOf(r.Slot, g.cur[r.Slot])
		g.total += v - g.val[r.Slot]
		g.val[r.Slot] = v
	}
	g.chosen = append(g.chosen, i)
}

// pick makes the facilities idx the chosen set, first clearing only the
// slots the last one covered.
func (g *greedyState) pick(idx []int) {
	for _, i := range g.chosen {
		for _, r := range g.c.t.Rows(i) {
			clear(g.cur[r.Slot])
			g.val[r.Slot] = 0
		}
	}
	g.chosen, g.total = g.chosen[:0], 0
	for _, i := range idx {
		g.add(i)
	}
}

// served counts the users the chosen set serves.
func (g *greedyState) served() int {
	n := 0
	for _, v := range g.val {
		if v > 0 {
			n++
		}
	}
	return n
}

// valueOf returns the objective value of the user in slot s under mask m.
func (c *covCache) valueOf(s int32, m service.Mask) float64 {
	return query.ObjectiveFromMask(c.variant, c.sc, c.t.Users[s], m)
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

func greedyFromCache(c *covCache, facilities []*trajectory.Facility, k int) Result {
	remaining := make([]int, len(facilities))
	for i := range remaining {
		remaining[i] = i
	}
	sort.Slice(remaining, func(a, b int) bool { return facilities[remaining[a]].ID < facilities[remaining[b]].ID })
	chosen := make([]*trajectory.Facility, 0, k)
	for len(chosen) < k && len(remaining) > 0 {
		best, bestGain := -1, -1.0
		for j, i := range remaining {
			if gain := c.st.gain(i); gain > bestGain {
				best, bestGain = j, gain
			}
		}
		c.st.add(remaining[best])
		chosen = append(chosen, facilities[remaining[best]])
		remaining = slices.Delete(remaining, best, best+1)
	}
	return Result{Facilities: chosen, Value: c.st.total, UsersServed: c.st.served()}
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
	best, bestVal := []int(nil), -1.0
	for {
		if v := cache.value(idx); v > bestVal {
			best, bestVal = append(best[:0], idx...), v
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
	return cache.result(facilities, best, bestVal), nil
}

// result is the Result of picking the facilities idx, valued v.
func (c *covCache) result(facilities []*trajectory.Facility, idx []int, v float64) Result {
	chosen := make([]*trajectory.Facility, len(idx))
	for i, j := range idx {
		chosen[i] = facilities[j]
	}
	c.st.pick(idx)
	return Result{Facilities: chosen, Value: v, UsersServed: c.st.served()}
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
// Fitness evaluations read the batch's one coverage table.
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
	pop := make([]individual, opts.Population)
	for i := range pop {
		g := randomSubset()
		pop[i] = individual{genes: g, fitness: cache.value(g)}
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
			ind := individual{genes: child, fitness: cache.value(child)}
			if ind.fitness > best.fitness {
				best = ind
			}
			next = append(next, ind)
		}
		pop = next
	}

	return cache.result(facilities, best.genes, best.fitness), nil
}
