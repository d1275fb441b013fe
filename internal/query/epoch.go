package query

// The epoch: the immutable unit of the live serving path. Queries over a
// mutating corpus always run against an Epoch — a frozen columnar base
// index, a small append-only delta overlay (trajectories inserted since
// the base was frozen, answered by linear scan), and a tombstone set
// masking deleted base trajectories out of every scan. An Epoch is a
// value: once published (internal/shard stores one behind an
// atomic.Pointer per shard) it never changes, so any number of readers
// share it without locks while a writer publishes successors and a
// background rebuild folds delta and tombstones into a fresh base.
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
// delegates to the plain frozen engine, byte-identical in both answers
// and Metrics.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/service"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// maskedFrozenLayout adapts the frozen columnar layout with a tombstone
// mask: identical to frozenLayout except that ScoreList skips entries of
// tombstoned trajectories. With an empty mask it is byte-identical to
// frozenLayout (ScoreNodeMasked delegates to ScoreNode).
type maskedFrozenLayout struct {
	f    *tqtree.Frozen
	dead map[trajectory.ID]struct{}
}

func (l maskedFrozenLayout) Root() int32                                 { return 0 }
func (l maskedFrozenLayout) Nil() int32                                  { return -1 }
func (l maskedFrozenLayout) IsLeaf(n int32) bool                         { return l.f.IsLeaf(n) }
func (l maskedFrozenLayout) Child(n int32, i int) int32                  { return l.f.Child(n, i) }
func (l maskedFrozenLayout) Rect(n int32) geo.Rect                       { return l.f.Rect(n) }
func (l maskedFrozenLayout) ListLen(n int32) int                         { return l.f.ListLen(n) }
func (l maskedFrozenLayout) OwnUB(n int32, sc service.Scenario) float64  { return l.f.OwnUB(n, sc) }
func (l maskedFrozenLayout) TreeUB(n int32, sc service.Scenario) float64 { return l.f.TreeUB(n, sc) }
func (l maskedFrozenLayout) FilterModeFor(sc service.Scenario) tqtree.FilterMode {
	return l.f.FilterModeFor(sc)
}
func (l maskedFrozenLayout) AncestorsCanServe(sc service.Scenario) bool {
	return l.f.AncestorsCanServe(sc)
}
func (l maskedFrozenLayout) ValidateScenario(sc service.Scenario) error {
	return l.f.ValidateScenario(sc)
}
func (l maskedFrozenLayout) ScoreList(n int32, embr geo.Rect, mode tqtree.FilterMode, ss *service.StopSet, sc service.Scenario, _ *entryScorer) (float64, int) {
	return l.f.ScoreNodeMasked(n, embr, mode, ss, sc, l.dead)
}

// Epoch is one immutable serving state of a live index: a frozen base, a
// delta overlay, and a tombstone set. Construct with NewEpoch; all
// methods are safe for any number of concurrent readers.
type Epoch struct {
	base  *FrozenEngine
	delta []*trajectory.Trajectory
	dead  map[trajectory.ID]struct{}

	// deltaUB is the delta overlay's per-scenario service upper bound —
	// the delta's counterpart of the root `sub`.
	deltaUB         [service.NumScenarios]float64
	deltaMultipoint bool
	gen             uint64
}

// NewEpoch assembles an epoch and validates its invariants: tombstones
// must name base trajectories, and delta IDs must be unique and distinct
// from every surviving base ID (a tombstoned base ID may be re-used by a
// delta re-insert). gen is an opaque generation counter for diagnostics.
func NewEpoch(base *FrozenEngine, delta []*trajectory.Trajectory, dead map[trajectory.ID]struct{}, gen uint64) (*Epoch, error) {
	ep := &Epoch{base: base, delta: delta, dead: dead, gen: gen}
	users := base.Table()
	for id := range dead {
		if !users.Has(id) {
			return nil, fmt.Errorf("query: tombstone %d names no base trajectory", id)
		}
	}
	seen := make(map[trajectory.ID]struct{}, len(delta))
	variant := base.Frozen().Variant()
	for _, u := range delta {
		if _, dup := seen[u.ID]; dup {
			return nil, fmt.Errorf("query: duplicate id %d in delta", u.ID)
		}
		if users.Has(u.ID) {
			if _, gone := dead[u.ID]; !gone {
				return nil, fmt.Errorf("query: delta id %d collides with a live base trajectory", u.ID)
			}
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
	next := &Epoch{
		base:            ep.base,
		delta:           append(ep.delta, u),
		dead:            ep.dead,
		deltaUB:         ep.deltaUB,
		deltaMultipoint: ep.deltaMultipoint || u.Len() > 2,
		gen:             gen,
	}
	next.deltaUB[service.Binary] += deltaBinaryUB(ep.base.Frozen().Variant(), u)
	next.deltaUB[service.PointCount]++
	next.deltaUB[service.Length]++
	return next
}

// WithDelta returns the successor epoch with the delta overlay replaced
// (a delta-item removal) — deltaUB and the multipoint flag are
// recomputed over the new overlay, O(len(delta)), matching the slice
// rewrite the removal already paid for.
func (ep *Epoch) WithDelta(delta []*trajectory.Trajectory, gen uint64) *Epoch {
	next := &Epoch{base: ep.base, delta: delta, dead: ep.dead, gen: gen}
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

// WithTombstones returns the successor epoch with the tombstone set
// replaced (a base-item deletion). dead must be a fresh map the caller
// never mutates again (copy-on-write); it must only name base
// trajectories.
func (ep *Epoch) WithTombstones(dead map[trajectory.ID]struct{}, gen uint64) *Epoch {
	return &Epoch{
		base:            ep.base,
		delta:           ep.delta,
		dead:            dead,
		deltaUB:         ep.deltaUB,
		deltaMultipoint: ep.deltaMultipoint,
		gen:             gen,
	}
}

// Base returns the frozen base engine.
func (ep *Epoch) Base() *FrozenEngine { return ep.base }

// Delta returns the delta overlay (read-only).
func (ep *Epoch) Delta() []*trajectory.Trajectory { return ep.delta }

// Tombstones returns the tombstone set (read-only).
func (ep *Epoch) Tombstones() map[trajectory.ID]struct{} { return ep.dead }

// Generation returns the epoch's generation counter.
func (ep *Epoch) Generation() uint64 { return ep.gen }

// DeltaLen returns the number of delta trajectories.
func (ep *Epoch) DeltaLen() int { return len(ep.delta) }

// TombstoneCount returns the number of tombstoned base trajectories.
func (ep *Epoch) TombstoneCount() int { return len(ep.dead) }

// Len returns the logical corpus size: surviving base plus delta.
func (ep *Epoch) Len() int {
	return ep.base.Table().Len() - len(ep.dead) + len(ep.delta)
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
	if _, gone := ep.dead[id]; gone {
		return false
	}
	return ep.base.Table().Has(id)
}

// LogicalCorpus returns the epoch's logical corpus — surviving base
// trajectories in table order followed by the delta — the input a
// background rebuild hands to a from-scratch build. The base part is one
// slice of views whose points alias the base's table (Table.View): two
// allocations however large the corpus, valid while the epoch is
// reachable, and garbage once the rebuild has frozen its tree.
func (ep *Epoch) LogicalCorpus() []*trajectory.Trajectory {
	tab := ep.base.Table()
	views := make([]trajectory.Trajectory, tab.Len()-len(ep.dead))
	out := make([]*trajectory.Trajectory, 0, len(views)+len(ep.delta))
	for i := int32(0); int(i) < tab.Len(); i++ {
		if _, gone := ep.dead[tab.ID(i)]; !gone {
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

func (ep *Epoch) layout() maskedFrozenLayout {
	return maskedFrozenLayout{f: ep.base.Frozen(), dead: ep.dead}
}

func (ep *Epoch) validate(p Params) error {
	if err := p.validate(); err != nil {
		return err
	}
	return ep.ValidateScenario(p.Scenario)
}

// deltaService scans the delta overlay for one facility, accumulating
// each intersecting trajectory's exact objective. The whole overlay is
// accounted as one q-node list in the metrics.
func (ep *Epoch) deltaService(f *trajectory.Facility, p Params, m *Metrics) float64 {
	if len(ep.delta) == 0 {
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
	mode := l.FilterModeFor(p.Scenario)
	arena := acquireCompArena(len(f.Stops))
	so := evaluateServiceG(l, int32(0), f.Stops, p, mode, &m, arena)
	putCompArena(arena)
	so += ep.deltaService(f, p, &m)
	return so, m, nil
}

// ServiceValues computes SO(U, f) for every facility in one batch across
// a pool of workers; see Engine.ServiceValues. The delta contributions
// are folded in per facility after the batch, preserving determinism.
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
	out, m, err := serviceValuesG[int32](ep.layout(), facilities, p, workers, cc)
	if err != nil {
		return nil, m, err
	}
	if len(ep.delta) > 0 {
		workers = ResolveWorkers(workers, len(facilities))
		if workers <= 1 {
			for i, f := range facilities {
				if err := cc.stopped(); err != nil {
					return nil, m, err
				}
				out[i] += ep.deltaService(f, p, &m)
			}
		} else {
			var next atomic.Int64
			perWorker := make([]Metrics, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for cc.stopped() == nil {
						i := int(next.Add(1)) - 1
						if i >= len(facilities) {
							return
						}
						out[i] += ep.deltaService(facilities[i], p, &perWorker[w])
					}
				}(w)
			}
			wg.Wait()
			for _, wm := range perWorker {
				m.Add(wm)
			}
			if err := cc.stopped(); err != nil {
				return nil, m, err
			}
		}
	}
	return out, m, nil
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
