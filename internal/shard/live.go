package shard

// Live serving: each shard holds an atomic pointer to an immutable
// query.Epoch — {frozen base, delta overlay, tombstones}. A query takes
// a read-lock only to capture the epoch set (a write-consistent cut,
// microseconds) and answers over the immutable values without any lock,
// while writes land in the delta under the writer lock and publish a
// successor epoch.
// When a shard's pending churn (delta + tombstones) crosses the policy
// thresholds, a background rebuild folds it into a fresh frozen base,
// built straight from the logical corpus, and swaps the shard's epoch —
// readers never wait on a rebuild, and the writer is blocked only for the
// capture and the swap, never for the build itself.
//
// Epoch lifecycle per shard (generation g):
//
//	serve(g)   — readers answer over epoch g; writer publishes
//	             g+1, g+2, ... as inserts/deletes land in the delta.
//	capture    — a rebuild starts: it pins the current epoch e0 and
//	             marks e0's delta as "baking"; writes keep flowing.
//	build      — off-lock: build a frozen base over e0's logical
//	             corpus (base − tombstones + delta).
//	swap       — under the writer lock: the epoch becomes {new base,
//	             delta written since capture, tombstones added since
//	             capture}, and the generation advances. In-flight
//	             queries keep their captured epoch; the next query
//	             sees the compacted one.
//
// Deletes of trajectories the new base will hold (baking delta items,
// and base items that survived the capture) are recorded while the build
// runs and tombstoned on the new base at the swap — the one subtlety that
// makes writes-during-rebuild linearizable.

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/query"
	"github.com/trajcover/trajcover/internal/tqtree"
	"github.com/trajcover/trajcover/internal/trajectory"
	"github.com/trajcover/trajcover/internal/wal"
)

// ErrImmutable marks an index that cannot accept writes: it was restored
// from a snapshot recorded with a partitioner this build does not know,
// so new trajectories cannot be routed consistently with the recorded
// partition. Queries (and Delete, which routes by ID lookup) still work.
var ErrImmutable = errors.New("shard: immutable index (unknown partitioner)")

// ErrDuplicateID rejects an Insert whose ID is already in the logical
// corpus. Typed so callers (the HTTP server) can tell a client mistake
// (409) from a durability failure (500).
var ErrDuplicateID = errors.New("shard: duplicate id")

// ErrDegraded rejects writes while the index is in degraded read-only
// mode: the WAL wedged or checkpoint IO failed, so durability cannot be
// promised. Queries keep serving from the last published epochs; the
// owner (the public WAL layer) probes the disk in the background and
// calls ExitDegraded once a fresh log is in place. Typed so the HTTP
// layer can answer 503 + Retry-After instead of 500.
var ErrDegraded = errors.New("shard: degraded (writes temporarily disabled)")

// Policy tunes when a live shard folds its delta into a fresh base.
type Policy struct {
	// MaxDelta triggers a background rebuild when a shard's pending
	// churn (delta + tombstones) reaches this count. 0 means 4096.
	MaxDelta int
	// MaxDeltaFraction triggers when pending churn reaches this fraction
	// of the shard's base corpus (subject to a small floor so tiny bases
	// don't thrash). 0 means 0.25; negative disables the fraction
	// trigger.
	MaxDeltaFraction float64
	// RebuildParallelism bounds the goroutines a background rebuild's
	// tree build may use. 0 means 1 — serial, leaving the cores to the
	// serving path.
	RebuildParallelism int
	// Manual disables automatic rebuilds; only Compact folds the delta.
	Manual bool
}

// fractionFloor keeps the fraction trigger from firing on every write
// over a small base.
const fractionFloor = 64

func (p Policy) withDefaults() Policy {
	if p.MaxDelta <= 0 {
		p.MaxDelta = 4096
	}
	if p.MaxDeltaFraction == 0 {
		p.MaxDeltaFraction = 0.25
	}
	if p.RebuildParallelism <= 0 {
		p.RebuildParallelism = 1
	}
	return p
}

// liveShard is one shard of a Live index. The epoch pointer is the only
// reader-visible state; everything else belongs to the writer (guarded
// by Live.wmu) or to the rebuild machinery.
type liveShard struct {
	epoch atomic.Pointer[query.Epoch]

	// Writer state (Live.wmu). delta mirrors the published epoch's
	// overlay and is append-only between rewrites; a removal keeps the
	// order of what remains. The published epoch holds the tombstones.
	delta     []*trajectory.Trajectory
	deltaByID map[trajectory.ID]*trajectory.Trajectory
	gen       uint64

	// Rebuild bookkeeping (Live.wmu), live while a rebuild is between
	// capture and swap: the first baked items of delta are the overlay
	// being folded (delta's order makes them a prefix), and landed lists
	// the deletes of trajectories the new base will hold.
	building bool
	baked    int
	landed   []trajectory.ID

	// rebuildMu serializes rebuilds of this shard (background vs
	// Compact); rebuildQueued dedups background triggers.
	rebuildMu     sync.Mutex
	rebuildQueued atomic.Bool
	compactions   atomic.Uint64
}

// Live is a set of epoch-serving shards jointly indexing one mutating
// trajectory corpus. All query methods are safe concurrently with
// Insert/Delete/Compact and with each other; Insert/Delete serialize on
// an internal writer lock.
type Live struct {
	// Scatter is the query surface: every query captures l.Epochs() once
	// and runs over that cut.
	Scatter

	bounds   geo.Rect
	part     Partitioner
	treeOpts tqtree.Options
	policy   Policy

	// wmu guards the writer state (overlays, rebuild bookkeeping, epoch
	// publishes). Queries take the read side only to CAPTURE the epoch
	// set — never while executing — so a capture is a write-consistent
	// cut: every shard's epoch reflects the same prefix of the global
	// write history. Per-shard pointer loads alone would not give that,
	// and a torn capture can hold an ID alive in two shards at once
	// (delete in shard A, re-insert routed to shard B by a geometric
	// partitioner), double-counting queries and producing snapshots
	// that fail the cross-shard uniqueness check on restore.
	wmu    sync.RWMutex
	shards []*liveShard

	// version counts epoch publishes across all shards: it is bumped
	// (inside wmu) after every successful Insert, Delete, and rebuild
	// swap. Result caches key on it — any two reads of an unchanged
	// version bracket a window with no epoch publish, so an answer
	// computed inside that window is current for the version. The
	// counter is monotone and never reused, which is what makes the
	// capture/compute/recheck caching protocol sound.
	version atomic.Uint64

	// lastErr records the most recent background-rebuild failure (wmu);
	// surfaced via Err. Rebuild inputs are validated epochs, so this
	// stays nil outside of resource exhaustion.
	lastErr error

	// log, when attached, makes writes durable: every Insert/Delete
	// appends its record inside wmu BEFORE publishing the successor
	// epoch, so WAL order is exactly apply order, and the write is
	// acknowledged only after WaitDurable returns (after wmu is
	// released, so concurrent writers share one group-commit fsync).
	log *wal.Log

	// Degraded-mode state machine. degraded is the write-path fast
	// check; the rest is guarded by hmu (never held together with wmu).
	// Transitions are monotone and observable: degEntries/degExits only
	// grow, and degEntries is either equal to degExits (healthy) or one
	// ahead (degraded).
	degraded   atomic.Bool
	hmu        sync.Mutex
	degCause   error
	degSince   time.Time
	degEntries uint64
	degExits   uint64
	onDegrade  func(cause error)
}

// Health is an observable snapshot of the degraded-mode state machine.
type Health struct {
	Degraded bool
	// Cause is the error that triggered the current degradation ("" when
	// healthy).
	Cause string
	// Since is when the current degradation began (zero when healthy).
	Since time.Time
	// Entries and Exits count degraded-mode transitions since open; they
	// are monotone, and Entries-Exits is the current state (1 degraded,
	// 0 healthy).
	Entries, Exits uint64
}

// BuildLive partitions users and builds one frozen-epoch shard per
// partition, each base written straight from its build plan.
func BuildLive(users []*trajectory.Trajectory, opts Options, pol Policy) (*Live, error) {
	opts = opts.withDefaults()
	f, err := BuildFrozen(users, opts)
	if err != nil {
		return nil, err
	}
	return newLive(f.epochs, opts.Partitioner, pol), nil
}

// Freeze returns the immutable form of the logical corpus over one epoch
// capture: a shard with no pending churn contributes its base as it is,
// and any other is folded as a rebuild would fold it. The index is only
// read and remains usable.
func (l *Live) Freeze() (*Frozen, error) {
	eps := l.Epochs()
	bases := make([]*tqtree.Frozen, len(eps))
	for i, ep := range eps {
		if ep.DeltaLen() == 0 && ep.TombstoneCount() == 0 {
			bases[i] = ep.Base()
			continue
		}
		fz, err := l.fold(ep)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		bases[i] = fz
	}
	return newFrozen(bases, l.PartitionerKind())
}

// fold builds a fresh frozen base over ep's logical corpus. The corpus is
// views over ep's table — BuildFrozen copies what the new base keeps, so
// nothing of ep (or of a file mapping under it) is referenced once ep is
// dropped.
func (l *Live) fold(ep *query.Epoch) (*tqtree.Frozen, error) {
	opts := l.treeOpts
	opts.Parallelism = l.policy.RebuildParallelism
	fz, err := tqtree.BuildFrozen(ep.LogicalCorpus(), opts)
	runtime.KeepAlive(ep) // the views alias ep's table until BuildFrozen has copied them
	return fz, err
}

// Live serves the frozen shards' epochs in the mutable form — the restore
// path for frozen snapshots. The epochs are shared, not copied: they are
// immutable, and every write publishes a successor. A Frozen restored
// from an unknown partitioner kind yields a Live that serves queries and
// accepts Deletes but returns ErrImmutable from Insert.
func (f *Frozen) Live(pol Policy) *Live {
	part, _ := PartitionerOf(f.kind)
	return newLive(f.epochs, part, pol)
}

// treeOptsOf reconstructs the build options a rebuild must reuse from a
// frozen index's recorded configuration — the single place this rule
// lives, shared by every construction and restore path.
func treeOptsOf(fz *tqtree.Frozen) tqtree.Options {
	return tqtree.Options{
		Variant:  fz.Variant(),
		Ordering: fz.Ordering(),
		Beta:     fz.Beta(),
		MaxDepth: fz.MaxDepth(),
		Bounds:   fz.Bounds(),
	}
}

// LiveFromEpochs assembles a Live from per-shard epochs — the snapshot
// restore path (the epochs may carry non-empty deltas and tombstones).
// IDs must be unique across every shard's logical corpus: NewEpoch made
// each unique in itself, and one merge of their sorted ID columns checks
// the rest. The shared root space and rebuild options come from the
// first shard's base (every shard is built with one configuration over
// one root space).
func LiveFromEpochs(epochs []*query.Epoch, part Partitioner, pol Policy) (*Live, error) {
	if len(epochs) == 0 {
		return nil, fmt.Errorf("shard: no live shards")
	}
	if len(epochs) > 1 {
		cols := make([][]trajectory.ID, len(epochs))
		for i, ep := range epochs {
			cols[i] = ep.SortedIDs()
		}
		if err := uniqueAcross(cols, "live"); err != nil {
			return nil, err
		}
	}
	return newLive(epochs, part, pol), nil
}

func newLive(epochs []*query.Epoch, part Partitioner, pol Policy) *Live {
	bounds := epochs[0].Base().Bounds()
	treeOpts := treeOptsOf(epochs[0].Base())
	treeOpts.Parallelism = 0 // rebuild parallelism comes from the policy
	l := &Live{
		bounds:   bounds,
		part:     part,
		treeOpts: treeOpts,
		policy:   pol.withDefaults(),
		shards:   make([]*liveShard, len(epochs)),
	}
	l.capture = l.Epochs
	for i, ep := range epochs {
		sh := &liveShard{
			delta:     ep.Delta(),
			deltaByID: make(map[trajectory.ID]*trajectory.Trajectory, ep.DeltaLen()),
			gen:       ep.Generation(),
		}
		for _, u := range ep.Delta() {
			sh.deltaByID[u.ID] = u
		}
		sh.epoch.Store(ep)
		l.shards[i] = sh
	}
	return l
}

// NumShards returns the shard count.
func (l *Live) NumShards() int { return len(l.shards) }

// PartitionerKind returns the configured partitioner's kind, or "" when
// none survives (restored from an unknown custom kind).
func (l *Live) PartitionerKind() string {
	if l.part == nil {
		return ""
	}
	return l.part.Kind()
}

// Epochs returns each shard's current epoch as one write-consistent
// cut: the read lock excludes writers for the duration of the pointer
// loads (microseconds), so the capture reflects a single prefix of the
// write history across every shard. The returned epochs are immutable;
// callers (queries, snapshot writers) work from them without further
// coordination — no lock is held while they execute.
func (l *Live) Epochs() []*query.Epoch {
	l.wmu.RLock()
	out := make([]*query.Epoch, len(l.shards))
	for i, sh := range l.shards {
		out[i] = sh.epoch.Load()
	}
	l.wmu.RUnlock()
	return out
}

// Version returns the epoch-publish counter: it increases after every
// acknowledged write and every rebuild swap, and is never reused. Two
// equal reads bracketing a computation prove no epoch was published
// while it ran — the invalidation primitive for result caches.
func (l *Live) Version() uint64 { return l.version.Load() }

// Len returns the total logical corpus size.
func (l *Live) Len() int {
	n := 0
	for _, ep := range l.Epochs() {
		n += ep.Len()
	}
	return n
}

// Sizes returns each shard's logical corpus size.
func (l *Live) Sizes() []int {
	eps := l.Epochs()
	out := make([]int, len(eps))
	for i, ep := range eps {
		out[i] = ep.Len()
	}
	return out
}

// Err returns the most recent background-rebuild error, or nil.
func (l *Live) Err() error {
	l.wmu.RLock()
	defer l.wmu.RUnlock()
	return l.lastErr
}

// ShardStats is one shard's live-serving state.
type ShardStats struct {
	// Len is the shard's logical corpus size.
	Len int
	// DeltaLen and Tombstones are the pending churn a rebuild will fold.
	DeltaLen   int
	Tombstones int
	// Generation counts epoch publishes (writes and swaps).
	Generation uint64
	// Compactions counts completed rebuild-and-swap cycles.
	Compactions uint64
	// BaseBytes is the size of the shard's frozen base — index columns
	// plus trajectory table — summed from slice lengths. With Mapped
	// false it is heap the process holds for as long as the base serves;
	// with Mapped true the bytes alias a snapshot file mapping, resident
	// only as far as the OS keeps their pages (the table's ID, offset
	// and lookup columns, about 12 bytes per trajectory, are heap either
	// way). The delta overlay is not counted: Policy bounds it.
	BaseBytes int64
	Mapped    bool
}

// Stats returns per-shard serving statistics over one consistent
// epoch capture.
func (l *Live) Stats() []ShardStats {
	eps := l.Epochs()
	out := make([]ShardStats, len(l.shards))
	for i, sh := range l.shards {
		ep := eps[i]
		out[i] = ShardStats{
			Len:         ep.Len(),
			DeltaLen:    ep.DeltaLen(),
			Tombstones:  ep.TombstoneCount(),
			Generation:  ep.Generation(),
			Compactions: sh.compactions.Load(),
			BaseBytes:   ep.Base().Bytes(),
			Mapped:      ep.Base().Mapped(),
		}
	}
	return out
}

// has reports whether the shard's logical corpus contains id, from the
// writer's state. Caller holds wmu.
func (sh *liveShard) has(id trajectory.ID) bool {
	if _, ok := sh.deltaByID[id]; ok {
		return true
	}
	_, ok := sh.epoch.Load().BaseOrdinal(id)
	return ok
}

// AttachWAL makes the index durable: every subsequent Insert/Delete is
// appended to log before its epoch is published and acknowledged only
// once the append is durable per the log's sync policy. Attach before
// the index is shared with writers (the restore path replays history
// first, then attaches, so replayed records are not re-logged).
func (l *Live) AttachWAL(log *wal.Log) {
	l.wmu.Lock()
	l.log = log
	l.wmu.Unlock()
}

// WAL returns the attached log, or nil.
func (l *Live) WAL() *wal.Log {
	l.wmu.RLock()
	defer l.wmu.RUnlock()
	return l.log
}

// SwapWAL atomically replaces the attached log and returns the previous
// one — the recovery path: the owner opens a successor log over the
// same directory and swaps it in while writes are still rejected
// (degraded), so no write can race the half-installed log.
func (l *Live) SwapWAL(log *wal.Log) *wal.Log {
	l.wmu.Lock()
	old := l.log
	l.log = log
	l.wmu.Unlock()
	return old
}

// SetDegradeHook registers fn to run (on the failing writer's
// goroutine, without locks held) each time the index enters degraded
// mode — the owner spawns its recovery probe from it. Set before the
// index is shared with writers.
func (l *Live) SetDegradeHook(fn func(cause error)) {
	l.hmu.Lock()
	l.onDegrade = fn
	l.hmu.Unlock()
}

// EnterDegraded flips the index into degraded read-only mode with the
// given cause. Idempotent while degraded: the first cause wins until
// ExitDegraded.
func (l *Live) EnterDegraded(cause error) {
	l.hmu.Lock()
	if l.degraded.Load() {
		l.hmu.Unlock()
		return
	}
	l.degCause = cause
	l.degSince = time.Now()
	l.degEntries++
	l.degraded.Store(true)
	hook := l.onDegrade
	l.hmu.Unlock()
	if hook != nil {
		hook(cause)
	}
}

// ExitDegraded returns the index to normal writable service. The owner
// calls it only after a fresh WAL is attached and the full in-memory
// state is durable (checkpointed), so the ack invariant holds across
// the cycle. Idempotent.
func (l *Live) ExitDegraded() {
	l.hmu.Lock()
	if l.degraded.Load() {
		l.degCause = nil
		l.degSince = time.Time{}
		l.degExits++
		l.degraded.Store(false)
	}
	l.hmu.Unlock()
}

// Degraded reports whether the index is in degraded read-only mode.
func (l *Live) Degraded() bool { return l.degraded.Load() }

// Health snapshots the degraded-mode state machine.
func (l *Live) Health() Health {
	l.hmu.Lock()
	defer l.hmu.Unlock()
	h := Health{
		Degraded: l.degraded.Load(),
		Since:    l.degSince,
		Entries:  l.degEntries,
		Exits:    l.degExits,
	}
	if l.degCause != nil {
		h.Cause = l.degCause.Error()
	}
	return h
}

// degradedErr is the typed rejection every write path returns while
// degraded, carrying the cause.
func (l *Live) degradedErr() error {
	l.hmu.Lock()
	cause := l.degCause
	l.hmu.Unlock()
	if cause != nil {
		return fmt.Errorf("%w: %v", ErrDegraded, cause)
	}
	return ErrDegraded
}

// walFailure classifies a write-path WAL error: a wedged log means the
// disk refused bytes of unknown extent — enter degraded mode and reject
// with ErrDegraded; anything else (an encoding error) passes through.
// log is the log captured under wmu by the failing write.
func (l *Live) walFailure(op string, log *wal.Log, err error) error {
	if log != nil && log.Err() != nil {
		l.EnterDegraded(err)
		return fmt.Errorf("%w: %s: %v", ErrDegraded, op, err)
	}
	return fmt.Errorf("shard: %s: %w", op, err)
}

// CheckpointCapture atomically captures a write-consistent epoch cut
// and rotates the WAL in the same critical section, so the returned
// segment index is exact: every write in the capture is in a segment
// below cut, every later write in a segment at or above it. Replaying
// segments >= cut on top of a snapshot of the capture reconstructs the
// index. Requires an attached WAL.
func (l *Live) CheckpointCapture() (eps []*query.Epoch, cut uint64, err error) {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if l.log == nil {
		return nil, 0, fmt.Errorf("shard: no WAL attached")
	}
	cut, err = l.log.Rotate()
	if err != nil {
		return nil, 0, fmt.Errorf("shard: wal rotate: %w", err)
	}
	eps = make([]*query.Epoch, len(l.shards))
	for i, sh := range l.shards {
		eps[i] = sh.epoch.Load()
	}
	return eps, cut, nil
}

// Insert adds a trajectory to its shard's delta overlay and publishes
// the successor epoch (O(1) — see Epoch.WithInsert). Safe concurrently
// with queries and other writes; duplicate IDs (anywhere in the logical
// corpus) are rejected with ErrDuplicateID. With a WAL attached, Insert
// returns only after the record is durable per the sync policy; a
// durability error means the write was NOT acknowledged, and the index
// enters degraded read-only mode (later writes fail fast with
// ErrDegraded until recovery re-establishes a durable log; an error
// after the epoch publish leaves the write applied in memory but
// unacked — recovery checkpoints the in-memory state before accepting
// new writes, so replay never sees an inconsistent history).
func (l *Live) Insert(u *trajectory.Trajectory) error {
	if l.part == nil {
		return fmt.Errorf("%w: cannot route insert", ErrImmutable)
	}
	if l.degraded.Load() {
		return l.degradedErr()
	}
	l.wmu.Lock()
	for _, sh := range l.shards {
		if sh.has(u.ID) {
			l.wmu.Unlock()
			return fmt.Errorf("%w: %d", ErrDuplicateID, u.ID)
		}
	}
	var lsn uint64
	if l.log != nil {
		var err error
		lsn, err = l.log.Append(wal.Record{Op: wal.OpInsert, Trajectory: u})
		if err != nil {
			log := l.log
			l.wmu.Unlock()
			return l.walFailure("wal append", log, err)
		}
	}
	i := clampShard(l.part.Assign(u, l.bounds, len(l.shards)), len(l.shards))
	sh := l.shards[i]
	sh.gen++
	ep := sh.epoch.Load().WithInsert(u, sh.gen)
	sh.delta = ep.Delta()
	sh.deltaByID[u.ID] = u
	sh.epoch.Store(ep)
	l.version.Add(1)
	l.maybeCompact(sh)
	log := l.log
	l.wmu.Unlock()
	if log != nil {
		if err := log.WaitDurable(lsn); err != nil {
			return l.walFailure("wal sync", log, err)
		}
	}
	return nil
}

// Delete removes the trajectory with the given id from the logical
// corpus, reporting whether it was present. A delta trajectory is
// dropped from the overlay; a base trajectory is tombstoned until the
// next rebuild folds it away. Safe concurrently with queries. With a
// WAL attached, a present-and-removed delete is acknowledged only after
// its record is durable; (false, nil) means the id was not present and
// nothing was logged.
func (l *Live) Delete(id trajectory.ID) (bool, error) {
	if l.degraded.Load() {
		return false, l.degradedErr()
	}
	l.wmu.Lock()
	for _, sh := range l.shards {
		ep := sh.epoch.Load()
		u, inDelta := sh.deltaByID[id]
		ord, inBase := ep.BaseOrdinal(id)
		if !inDelta && !inBase {
			continue
		}
		lsn, err := l.appendDeleteLocked(id)
		if err != nil {
			log := l.log
			l.wmu.Unlock()
			return false, l.walFailure("wal append", log, err)
		}
		sh.gen++
		if inDelta {
			i := slices.Index(sh.delta, u)
			if i < sh.baked {
				// u is being folded into the next base: mask it there.
				sh.baked--
				sh.landed = append(sh.landed, id)
			}
			sh.delta = append(sh.delta[:i:i], sh.delta[i+1:]...)
			delete(sh.deltaByID, id)
			ep = ep.WithDelta(sh.delta, sh.gen)
		} else {
			if sh.building {
				// The base being built still holds it.
				sh.landed = append(sh.landed, id)
			}
			ep = ep.WithTombstone(ord, sh.gen)
		}
		sh.epoch.Store(ep)
		l.version.Add(1)
		l.maybeCompact(sh)
		return true, l.ackUnlock(lsn)
	}
	l.wmu.Unlock()
	return false, nil
}

// appendDeleteLocked logs a delete record (no-op without a WAL). Caller
// holds wmu.
func (l *Live) appendDeleteLocked(id trajectory.ID) (uint64, error) {
	if l.log == nil {
		return 0, nil
	}
	return l.log.Append(wal.Record{Op: wal.OpDelete, ID: id})
}

// ackUnlock releases wmu and then waits for lsn to be durable — the
// tail of every successful write path.
func (l *Live) ackUnlock(lsn uint64) error {
	log := l.log
	l.wmu.Unlock()
	if log != nil {
		if err := log.WaitDurable(lsn); err != nil {
			return l.walFailure("wal sync", log, err)
		}
	}
	return nil
}

// maybeCompact spawns a background rebuild of a shard when the policy
// thresholds are crossed. It needs no lock — the policy is immutable,
// the epoch load is atomic, and the CAS dedups concurrent triggers —
// so a finished rebuild re-runs it on itself: a burst of writes that
// lands while a rebuild is in flight still gets folded once the writer
// goes idle (the follow-up trigger fires from the completed rebuild,
// not from a future write that may never come).
func (l *Live) maybeCompact(sh *liveShard) {
	if l.policy.Manual {
		return
	}
	ep := sh.epoch.Load()
	pending := ep.DeltaLen() + ep.TombstoneCount()
	if pending == 0 {
		return
	}
	trigger := pending >= l.policy.MaxDelta
	if !trigger && l.policy.MaxDeltaFraction > 0 && pending >= fractionFloor {
		if base := ep.Base().Table().Len(); float64(pending) >= l.policy.MaxDeltaFraction*float64(base) {
			trigger = true
		}
	}
	if !trigger {
		return
	}
	if !sh.rebuildQueued.CompareAndSwap(false, true) {
		return // a rebuild is already queued or running
	}
	go func() {
		err := l.rebuildShard(sh)
		sh.rebuildQueued.Store(false)
		if err != nil {
			l.wmu.Lock()
			l.lastErr = err
			l.wmu.Unlock()
			return
		}
		// Writes that landed during the rebuild may already exceed the
		// thresholds again; re-evaluate now rather than waiting for the
		// next write.
		l.maybeCompact(sh)
	}()
}

// Compact synchronously folds every shard's pending churn into fresh
// frozen bases. It is safe concurrently with queries and writes; if a
// background rebuild is in flight on a shard, Compact waits for it and
// then folds whatever churn remains.
func (l *Live) Compact() error {
	for _, sh := range l.shards {
		if err := l.rebuildShard(sh); err != nil {
			return err
		}
	}
	return nil
}

// rebuildShard rebuilds one shard: capture the epoch, build a frozen base
// over its logical corpus off-lock, then swap the shard onto the new base
// and carry forward the writes that landed during the build.
func (l *Live) rebuildShard(sh *liveShard) error {
	sh.rebuildMu.Lock()
	defer sh.rebuildMu.Unlock()

	// Capture: pin the epoch to fold and mark its delta as baking, so
	// that deletes landing during the build are carried onto the new base.
	l.wmu.Lock()
	e0 := sh.epoch.Load()
	if e0.DeltaLen() == 0 && e0.TombstoneCount() == 0 {
		l.wmu.Unlock()
		return nil
	}
	sh.building, sh.baked, sh.landed = true, e0.DeltaLen(), nil
	l.wmu.Unlock()

	// Build off-lock: readers and writers proceed against the current
	// epochs while the fold runs.
	fz, err := l.fold(e0)
	l.wmu.Lock()
	defer l.wmu.Unlock()
	if err == nil {
		// Swap: the new base holds e0's logical corpus; the overlay keeps
		// what was inserted since, and the deletes that landed meanwhile
		// become its tombstones.
		newDelta := slices.Clone(sh.delta[sh.baked:])
		var ep *query.Epoch
		if ep, err = query.NewEpoch(fz, newDelta, sh.landed, sh.gen+1); err == nil {
			sh.gen++
			sh.delta = newDelta
			sh.deltaByID = make(map[trajectory.ID]*trajectory.Trajectory, len(newDelta))
			for _, u := range newDelta {
				sh.deltaByID[u.ID] = u
			}
			sh.epoch.Store(ep)
			l.version.Add(1)
			sh.compactions.Add(1)
		}
	}
	sh.building, sh.baked, sh.landed = false, 0, nil
	return err
}
