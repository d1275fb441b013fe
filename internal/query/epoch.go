package query

// The epoch: the immutable unit of the live serving path. Queries over a
// mutating corpus always run against an Epoch — a frozen columnar base
// index, a small append-only delta overlay (trajectories inserted since
// the base was frozen, answered by linear scan), and a tombstone set —
// one bit per base ordinal — masking deleted base trajectories out of
// every scan. An Epoch is a value: once published (internal/shard stores one
// behind an atomic.Pointer per shard) it never changes, so any number of
// readers share it without locks while a writer publishes successors and
// a background rebuild folds delta and tombstones into a fresh base.
//
// Logical-corpus equivalence: every query over an Epoch answers for the
// corpus (base trajectories − tombstones) ∪ delta. The masked base scan
// accumulates exactly as a frozen index over the surviving base corpus
// would (same order, entries skipped, not re-grouped), and the delta
// scan adds each delta trajectory's objective via the same per-scenario
// semantics the tree entries encode — so Binary answers (and every
// integral scenario) are identical to a from-scratch build of the
// logical corpus, and fractional scenarios agree up to float summation
// order. With an empty delta and no tombstones, every path below
// runs the plain frozen engine's, byte-identical in both answers and
// Metrics.

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// Epoch is one immutable serving state of a live index: a frozen base, a
// delta overlay, and a tombstone set. Construct with NewEpoch; all
// methods are safe for any number of concurrent readers.
type Epoch struct {
	base  *FrozenEngine
	delta []*trajectory.Trajectory
	// dead holds the base table ordinals of deleted trajectories, one
	// bit each, and nDead counts them. It is nil while nothing is
	// deleted, and a published set is never written again: a delete
	// copies it.
	dead  trajectory.OrdinalSet
	nDead int

	// deltaUB is the delta overlay's per-scenario service upper bound —
	// the delta's counterpart of the root `sub`.
	deltaUB         [service.NumScenarios]float64
	deltaMultipoint bool
	gen             uint64
}

// NewEpoch assembles an epoch and validates its invariants: tombstones
// must name distinct base trajectories, and delta IDs must be unique and
// distinct from every surviving base ID (a tombstoned base ID may be
// re-used by a delta re-insert). gen is an opaque generation counter for
// diagnostics.
func NewEpoch(base *FrozenEngine, delta []*trajectory.Trajectory, dead []trajectory.ID, gen uint64) (*Epoch, error) {
	ep := &Epoch{base: base, delta: delta, gen: gen}
	for _, id := range dead {
		ord, ok := base.Table().Lookup(id)
		if !ok {
			return nil, fmt.Errorf("query: tombstone %d names no base trajectory", id)
		}
		if ep.dead.Has(ord) {
			return nil, fmt.Errorf("query: duplicate tombstone %d", id)
		}
		ep.tombstone(ord)
	}
	seen := make(map[trajectory.ID]struct{}, len(delta))
	variant := base.Frozen().Variant()
	for _, u := range delta {
		if _, dup := seen[u.ID]; dup {
			return nil, fmt.Errorf("query: duplicate id %d in delta", u.ID)
		}
		if _, live := ep.BaseOrdinal(u.ID); live {
			return nil, fmt.Errorf("query: delta id %d collides with a live base trajectory", u.ID)
		}
		seen[u.ID] = struct{}{}
		if u.Len() > 2 {
			ep.deltaMultipoint = true
		}
		ep.deltaUB[service.Binary] += deltaBinaryUB(variant, u)
		ep.deltaUB[service.PointCount]++
		ep.deltaUB[service.Length]++
	}
	return ep, nil
}

// tombstone adds ord to the set in place, allocating it — one bit per
// base trajectory — on the first delete. Only an epoch nobody else can
// see yet may be written.
func (ep *Epoch) tombstone(ord int32) {
	if ep.dead == nil {
		ep.dead = trajectory.NewOrdinalSet(ep.base.Table().Len())
	}
	ep.dead.Add(ord)
	ep.nDead++
}

// deltaBinaryUB is a delta trajectory's maximum Binary objective: served
// segments for the Segmented variant, one served user otherwise.
func deltaBinaryUB(v tqtree.Variant, u *trajectory.Trajectory) float64 {
	if v == tqtree.Segmented {
		return float64(u.NumSegments())
	}
	return 1
}

// WithInsert returns the successor epoch with u appended to the delta
// overlay — the O(1) write path. It skips NewEpoch's revalidation: the
// caller (the single writer in internal/shard) has already checked
// that u's ID is absent from the logical corpus. The incremental
// deltaUB accumulates in overlay order, exactly as a fresh NewEpoch
// over the same slice would, so successor and from-scratch epochs are
// bit-identical.
func (ep *Epoch) WithInsert(u *trajectory.Trajectory, gen uint64) *Epoch {
	next := *ep
	next.delta = append(ep.delta, u)
	next.deltaMultipoint = ep.deltaMultipoint || u.Len() > 2
	next.gen = gen
	next.deltaUB[service.Binary] += deltaBinaryUB(ep.base.Frozen().Variant(), u)
	next.deltaUB[service.PointCount]++
	next.deltaUB[service.Length]++
	return &next
}

// WithDelta returns the successor epoch with the delta overlay replaced
// (a delta-item removal) — deltaUB and the multipoint flag are
// recomputed over the new overlay, O(len(delta)), matching the slice
// rewrite the removal already paid for.
func (ep *Epoch) WithDelta(delta []*trajectory.Trajectory, gen uint64) *Epoch {
	next := &Epoch{base: ep.base, delta: delta, dead: ep.dead, nDead: ep.nDead, gen: gen}
	variant := ep.base.Frozen().Variant()
	for _, u := range delta {
		if u.Len() > 2 {
			next.deltaMultipoint = true
		}
		next.deltaUB[service.Binary] += deltaBinaryUB(variant, u)
		next.deltaUB[service.PointCount]++
		next.deltaUB[service.Length]++
	}
	return next
}

// WithTombstone returns the successor epoch with base ordinal ord
// tombstoned (a base-item deletion): the set is copied, one allocation of
// one bit per base trajectory. ord must name a surviving base
// trajectory (see BaseOrdinal).
func (ep *Epoch) WithTombstone(ord int32, gen uint64) *Epoch {
	next := *ep
	next.dead = slices.Clone(ep.dead)
	next.tombstone(ord)
	next.gen = gen
	return &next
}

// Base returns the frozen base engine.
func (ep *Epoch) Base() *FrozenEngine { return ep.base }

// Delta returns the delta overlay (read-only).
func (ep *Epoch) Delta() []*trajectory.Trajectory { return ep.delta }

// TombstoneIDs returns the IDs of the tombstoned base trajectories in
// ascending order.
func (ep *Epoch) TombstoneIDs() []trajectory.ID {
	tab := ep.base.Table()
	ids := make([]trajectory.ID, 0, ep.nDead)
	for i := int32(0); len(ids) < ep.nDead; i++ {
		if ep.dead.Has(i) {
			ids = append(ids, tab.ID(i))
		}
	}
	slices.Sort(ids)
	return ids
}

// BaseOrdinal returns the base ordinal of id when the base holds it and
// it is not tombstoned.
func (ep *Epoch) BaseOrdinal(id trajectory.ID) (int32, bool) {
	ord, ok := ep.base.Table().Lookup(id)
	return ord, ok && !ep.dead.Has(ord)
}

// Generation returns the epoch's generation counter.
func (ep *Epoch) Generation() uint64 { return ep.gen }

// DeltaLen returns the number of delta trajectories.
func (ep *Epoch) DeltaLen() int { return len(ep.delta) }

// TombstoneCount returns the number of tombstoned base trajectories.
func (ep *Epoch) TombstoneCount() int { return ep.nDead }

// Len returns the logical corpus size: surviving base plus delta.
func (ep *Epoch) Len() int {
	return ep.base.Table().Len() - ep.nDead + len(ep.delta)
}

// Has reports whether the logical corpus contains id. The delta check
// is a linear scan — the overlay is bounded by the compaction policy,
// and this path serves lookups, not queries.
func (ep *Epoch) Has(id trajectory.ID) bool {
	for _, u := range ep.delta {
		if u.ID == id {
			return true
		}
	}
	_, ok := ep.BaseOrdinal(id)
	return ok
}

// LogicalCorpus returns the epoch's logical corpus — surviving base
// trajectories in table order followed by the delta — the input a
// background rebuild hands to a from-scratch build. The base part is one
// slice of views whose points alias the base's table (Table.View): two
// allocations however large the corpus, valid while the epoch is
// reachable, and garbage once the rebuild has frozen its tree.
func (ep *Epoch) LogicalCorpus() []*trajectory.Trajectory {
	tab := ep.base.Table()
	views := make([]trajectory.Trajectory, tab.Len()-ep.nDead)
	out := make([]*trajectory.Trajectory, 0, len(views)+len(ep.delta))
	for i := int32(0); int(i) < tab.Len(); i++ {
		if !ep.dead.Has(i) {
			v := &views[len(out)]
			tab.View(i, v)
			out = append(out, v)
		}
	}
	return append(out, ep.delta...)
}

// SortedIDs returns the logical corpus's IDs in ascending order — one
// column of the cross-shard uniqueness merge.
func (ep *Epoch) SortedIDs() []trajectory.ID {
	ids := make([]trajectory.ID, 0, ep.Len())
	ids = ep.base.Table().AppendSortedIDs(ids, ep.dead)
	d := make([]trajectory.ID, len(ep.delta))
	for i, u := range ep.delta {
		d[i] = u.ID
	}
	slices.Sort(d)
	// Merge the sorted overlay in from the back, in place.
	i := len(ids) - 1
	ids = append(ids, d...)
	k := len(ids) - 1
	for j := len(d) - 1; j >= 0; k-- {
		if i >= 0 && ids[i] > d[j] {
			ids[k] = ids[i]
			i--
		} else {
			ids[k] = d[j]
			j--
		}
	}
	return ids
}

// ValidateScenario checks that queries under sc are exact over the
// logical corpus: the base's own rule plus the same rule applied to the
// delta overlay. The base check is conservative — it considers every
// built trajectory, tombstoned or not.
func (ep *Epoch) ValidateScenario(sc service.Scenario) error {
	if err := ep.base.Frozen().ValidateScenario(sc); err != nil {
		return err
	}
	return tqtree.ValidateScenarioFor(ep.base.Frozen().Variant(), ep.deltaMultipoint, sc)
}

// Variant returns the base's decomposition variant, which the delta
// overlay follows too.
func (ep *Epoch) Variant() tqtree.Variant { return ep.base.Frozen().Variant() }

// User returns the logical corpus's trajectory with the given id, or nil:
// the overlay's own object for a delta trajectory, a view whose points
// alias the base table for a surviving base one.
func (ep *Epoch) User(id trajectory.ID) *trajectory.Trajectory {
	for _, u := range ep.delta {
		if u.ID == id {
			return u
		}
	}
	ord, ok := ep.BaseOrdinal(id)
	if !ok {
		return nil
	}
	u := new(trajectory.Trajectory)
	ep.base.Table().View(ord, u)
	return u
}

func (ep *Epoch) layout() frozenLayout {
	return frozenLayout{f: ep.base.Frozen(), dead: ep.dead}
}

func (ep *Epoch) validate(p Params) error {
	if err := p.validate(); err != nil {
		return err
	}
	return ep.ValidateScenario(p.Scenario)
}

// deltaService scans the delta overlay for one facility, accumulating
// each intersecting trajectory's exact objective. The whole overlay is
// accounted as one q-node list in the metrics. A nil epoch, or an empty
// overlay, adds 0 and counts nothing.
func (ep *Epoch) deltaService(f *trajectory.Facility, p Params, m *Metrics) float64 {
	if ep == nil || len(ep.delta) == 0 {
		return 0
	}
	m.NodesVisited++
	embr := f.EMBR(p.Psi)
	variant := ep.base.Frozen().Variant()
	ss := service.AcquireStopSet(f.Stops, p.Psi, len(ep.delta)/4)
	var so float64
	for _, u := range ep.delta {
		if !embr.Intersects(u.MBR()) {
			continue
		}
		m.EntriesScored++
		so += deltaObjective(variant, p.Scenario, u, ss)
	}
	ss.Release()
	return so
}

// deltaObjective is one delta trajectory's objective under the variant's
// semantics — exactly what the sum of its tree entries would contribute
// after a rebuild (integral scenarios identically; fractional ones up to
// summation order).
func deltaObjective(v tqtree.Variant, sc service.Scenario, u *trajectory.Trajectory, ss *service.StopSet) float64 {
	if v == tqtree.Segmented && sc == service.Binary {
		served := 0
		for i := 0; i < u.NumSegments(); i++ {
			if ss.Served(u.Points[i]) && ss.Served(u.Points[i+1]) {
				served++
			}
		}
		return float64(served)
	}
	return service.ValueSet(sc, u, ss)
}

// ServiceValue computes SO(U, f) over the logical corpus: the masked
// base traversal (Algorithm 1 over the frozen layout) plus the delta
// scan. With an empty delta and no tombstones it is byte-identical —
// answer and Metrics — to FrozenEngine.ServiceValue.
func (ep *Epoch) ServiceValue(f *trajectory.Facility, p Params) (float64, Metrics, error) {
	defer runtime.KeepAlive(ep)
	if err := ep.validate(p); err != nil {
		return 0, Metrics{}, err
	}
	l := ep.layout()
	var m Metrics
	mode := l.f.FilterModeFor(p.Scenario)
	arena := acquireCompArena(len(f.Stops))
	so := evaluateService(l, 0, f.Stops, p, mode, l.f.AncestorsCanServe(p.Scenario), &m, arena)
	putCompArena(arena)
	so += ep.deltaService(f, p, &m)
	return so, m, nil
}

// ServiceValues computes SO(U, f) for every facility in one batch across
// a pool of workers; see FrozenEngine.ServiceValues. Each facility's delta scan
// runs in the same step as its base traversal and is added after it.
func (ep *Epoch) ServiceValues(facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	return ep.serviceValues(facilities, p, workers, nil)
}

func (ep *Epoch) serviceValues(facilities []*trajectory.Facility, p Params, workers int, cc *canceller) ([]float64, Metrics, error) {
	// Pins a mapped base (and mapped delta points) for the whole batch;
	// see FrozenEngine.ServiceValue.
	defer runtime.KeepAlive(ep)
	if err := ep.validate(p); err != nil {
		return nil, Metrics{}, err
	}
	return serviceValues(ep.layout(), facilities, p, workers, cc, ep)
}

// UpperBound is a sound overestimate of f's service value over the
// epoch's logical corpus, read without evaluating anything: the frozen
// base's seed bound (FrozenEngine.UpperBound — tombstones only lower the
// true value) plus, when the overlay is non-empty, its precomputed
// per-scenario bound. Like the engines' it does not validate p, and like
// theirs it is a diagnostic: no top-k consults it.
func (ep *Epoch) UpperBound(f *trajectory.Facility, p Params) float64 {
	ub := ep.base.UpperBound(f, p)
	if len(ep.delta) > 0 {
		ub += ep.deltaUB[p.Scenario]
	}
	return ub
}

// Coverage computes the per-user coverage masks of a facility over the
// logical corpus: the base's coverage walk with tombstoned trajectories
// skipped, then the delta overlay scanned with the masks a rebuild's
// entries would give its trajectories. With an empty overlay and no
// tombstones it equals FrozenEngine.Coverage, masks and Metrics.
func (ep *Epoch) Coverage(f *trajectory.Facility, p Params) (service.Coverage, Metrics, error) {
	defer runtime.KeepAlive(ep)
	if err := ep.validate(p); err != nil {
		return nil, Metrics{}, err
	}
	var m Metrics
	cov := coverage(ep.layout(), f, p, &m)
	if len(ep.delta) > 0 {
		m.NodesVisited++
		embr := f.EMBR(p.Psi)
		v := ep.Variant()
		ss := service.AcquireStopSet(f.Stops, p.Psi, len(ep.delta)/4)
		for _, u := range ep.delta {
			if embr.Intersects(u.MBR()) {
				m.EntriesScored++
				lo, hi, stride := coverSpan(v, -1, u.Len())
				coverPoints(cov, u.ID, u.Points, lo, hi, stride, ss)
			}
		}
		ss.Release()
	}
	return cov, m, nil
}
