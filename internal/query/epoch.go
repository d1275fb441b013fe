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
// order. With an empty delta and no tombstones an epoch is the paper's
// index: every path below is Algorithm 1 or the coverage walk over the
// base as built, answers and Metrics — which is why every shard of both
// public index types serves as an Epoch, a frozen one as a gen-0 epoch
// with nothing pending.

import (
	"context"
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
	base  *tqtree.Frozen
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
func NewEpoch(base *tqtree.Frozen, delta []*trajectory.Trajectory, dead []trajectory.ID, gen uint64) (*Epoch, error) {
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
	for _, u := range delta {
		if _, dup := seen[u.ID]; dup {
			return nil, fmt.Errorf("query: duplicate id %d in delta", u.ID)
		}
		if _, live := ep.BaseOrdinal(u.ID); live {
			return nil, fmt.Errorf("query: delta id %d collides with a live base trajectory", u.ID)
		}
		seen[u.ID] = struct{}{}
	}
	ep.account(delta...)
	return ep, nil
}

// account adds delta trajectories, in overlay order, to the epoch's
// per-scenario bound and multipoint flag — the one accumulation
// NewEpoch, WithInsert and WithDelta share, so a successor epoch is
// bit-identical to a fresh one over the same overlay. A trajectory's
// Binary bound is its segment count under the Segmented variant (served
// segments), one served user otherwise.
func (ep *Epoch) account(delta ...*trajectory.Trajectory) {
	segmented := ep.base.Variant() == tqtree.Segmented
	for _, u := range delta {
		ep.deltaMultipoint = ep.deltaMultipoint || u.Len() > 2
		if segmented {
			ep.deltaUB[service.Binary] += float64(u.NumSegments())
		} else {
			ep.deltaUB[service.Binary]++
		}
		ep.deltaUB[service.PointCount]++
		ep.deltaUB[service.Length]++
	}
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

// WithInsert returns the successor epoch with u appended to the delta
// overlay — the O(1) write path. It skips NewEpoch's revalidation: the
// caller (the single writer in internal/shard) has already checked
// that u's ID is absent from the logical corpus.
func (ep *Epoch) WithInsert(u *trajectory.Trajectory, gen uint64) *Epoch {
	next := *ep
	next.delta = append(ep.delta, u)
	next.gen = gen
	next.account(u)
	return &next
}

// WithDelta returns the successor epoch with the delta overlay replaced
// (a delta-item removal) — the overlay's bound and multipoint flag are
// recomputed over the new overlay, O(len(delta)), matching the slice
// rewrite the removal already paid for.
func (ep *Epoch) WithDelta(delta []*trajectory.Trajectory, gen uint64) *Epoch {
	next := &Epoch{base: ep.base, delta: delta, dead: ep.dead, nDead: ep.nDead, gen: gen}
	next.account(delta...)
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

// Base returns the frozen base index.
func (ep *Epoch) Base() *tqtree.Frozen { return ep.base }

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
	if err := ep.base.ValidateScenario(sc); err != nil {
		return err
	}
	return tqtree.ValidateScenarioFor(ep.base.Variant(), ep.deltaMultipoint, sc)
}

// Variant returns the base's decomposition variant, which the delta
// overlay follows too.
func (ep *Epoch) Variant() tqtree.Variant { return ep.base.Variant() }

func (ep *Epoch) layout() frozenLayout {
	return frozenLayout{f: ep.base, dead: ep.dead}
}

func (ep *Epoch) validate(p Params) error {
	if err := p.validate(); err != nil {
		return err
	}
	return ep.ValidateScenario(p.Scenario)
}

// deltaService scans the delta overlay for one facility, accumulating
// each intersecting trajectory's exact objective. The whole overlay is
// accounted as one q-node list in the metrics. An empty overlay adds 0
// and counts nothing.
func (ep *Epoch) deltaService(f *trajectory.Facility, p Params, m *Metrics) float64 {
	if len(ep.delta) == 0 {
		return 0
	}
	m.NodesVisited++
	embr := f.EMBR(p.Psi)
	variant := ep.base.Variant()
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
// scan. With an empty delta and no tombstones it is Algorithm 1 over
// the base as built, answer and Metrics.
func (ep *Epoch) ServiceValue(f *trajectory.Facility, p Params) (float64, Metrics, error) {
	// A mapped base's columns (and mapped delta points) alias a file
	// mapping whose lifetime is a finalizer on the base's pin; the
	// KeepAlive pins ep, and so the mapping, across the whole evaluation
	// even if the compiler proves ep dead mid-call. Same pattern on every
	// query entry point of this package.
	defer runtime.KeepAlive(ep)
	if err := ep.validate(p); err != nil {
		return 0, Metrics{}, err
	}
	l := ep.layout()
	var m Metrics
	arena := acquireCompArena(len(f.Stops))
	so := evaluateService(l, 0, f.Stops, p, l.f.FilterModeFor(p.Scenario), l.f.AncestorsCanServe(p.Scenario), &m, arena)
	putCompArena(arena)
	return so + ep.deltaService(f, p, &m), m, nil
}

// ServiceValuesCtx computes SO(U, f) for every facility in one batch
// across a pool of workers (normalized by ResolveWorkers), indexed like
// facilities and identical to calling ServiceValue in a loop. Each
// facility's delta scan runs in the same step as its base traversal and
// is added after it. The batch checks ctx between facilities (in every
// worker) and returns ctx.Err() instead of an answer once it is done.
func (ep *Epoch) ServiceValuesCtx(ctx context.Context, facilities []*trajectory.Facility, p Params, workers int) ([]float64, Metrics, error) {
	defer runtime.KeepAlive(ep) // see ServiceValue
	if err := ep.validate(p); err != nil {
		return nil, Metrics{}, err
	}
	return serviceValues(ctx, ep, facilities, p, workers)
}

// UpperBound is a sound overestimate of f's service value over the
// epoch's logical corpus, read without evaluating anything: the base's
// SeedBound (tombstones only lower the true value) plus, when the overlay
// is non-empty, its precomputed per-scenario bound. Like SeedBound it
// does not validate p, and it is a diagnostic: no top-k consults it.
func (ep *Epoch) UpperBound(f *trajectory.Facility, p Params) float64 {
	ub := SeedBound(ep.base, f, p)
	if len(ep.delta) > 0 {
		ub += ep.deltaUB[p.Scenario]
	}
	return ub
}

// Cover computes the coverage table of a facility batch over the logical
// corpus: the base's coverage walk with tombstoned trajectories skipped,
// then the delta overlay scanned with the masks a rebuild's entries would
// give its trajectories. This is what the MaxkCovRST solvers in
// internal/maxcov read, through internal/shard's Source.
func (ep *Epoch) Cover(facilities []*trajectory.Facility, p Params) (*service.CoverTable, Metrics, error) {
	defer runtime.KeepAlive(ep)
	if err := ep.validate(p); err != nil {
		return nil, Metrics{}, err
	}
	var m Metrics
	return cover(ep.layout(), facilities, p, ep.delta, &m), m, nil
}
