package trajcover

// Durability for the live serving path. OpenLiveShardedIndex pairs a
// LiveShardedIndex with a write-ahead log (internal/wal): every
// acknowledged Insert/Delete is appended to a rotating segment file
// before its epoch is published, and a write returns to the caller only
// once the record is durable per the configured sync policy. On boot,
// Open restores the newest checkpoint (a TQLIVE02 snapshot named after
// its WAL cut) and replays the post-checkpoint segments on top, so a
// reopened index serves exactly the logical corpus the crashed process
// had acknowledged — plus possibly a suffix of appended-but-unacked
// writes, which is allowed: recovery yields a prefix of the write
// history that contains every acknowledged write.
//
// Checkpoint protocol: capture the per-shard epoch cut and rotate the
// WAL in one critical section (so the new segment index is an exact
// cut), stream the capture to checkpoint-<cut>.tqlive via tmp + rename
// + directory fsync, then drop the pre-cut segments and older
// checkpoint files. Writes keep flowing the whole time — only the
// capture itself (microseconds) excludes them.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/trajcover/trajcover/internal/faultfs"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/wal"
)

// FS is the filesystem abstraction all WAL and checkpoint IO goes
// through — an alias of the internal faultfs interface, so external
// test harnesses can inject scripted disk faults via WALOptions.FS
// without importing internal packages. Production code leaves the
// field nil (the real OS).
type FS = faultfs.FS

// ErrDegraded rejects writes while the index is in degraded read-only
// mode: the WAL wedged or checkpoint IO failed, durability cannot be
// promised, and a background probe is retrying the disk with capped
// exponential backoff. Queries keep serving from the last published
// epochs; writes fail fast until the probe re-establishes a durable
// log (observable via Health). Test with errors.Is / IsDegraded.
var ErrDegraded = shard.ErrDegraded

// IsDegraded reports whether err means the index is temporarily
// rejecting writes in degraded read-only mode.
func IsDegraded(err error) bool { return errors.Is(err, ErrDegraded) }

// Health is an observable snapshot of an index's degraded-mode state
// machine plus its recovery probe's counters.
type Health struct {
	// Degraded reports whether writes are currently rejected.
	Degraded bool `json:"degraded"`
	// Cause is the error that triggered the current degradation (""
	// when healthy).
	Cause string `json:"cause,omitempty"`
	// Since is when the current degradation began (zero when healthy).
	Since time.Time `json:"since,omitempty"`
	// Entries and Exits count degraded transitions since open; both are
	// monotone and Entries-Exits is the current state (1 degraded, 0
	// healthy).
	Entries uint64 `json:"entries"`
	Exits   uint64 `json:"exits"`
	// Probes counts recovery attempts; Recoveries counts the ones that
	// restored writable service.
	Probes     uint64 `json:"probes,omitempty"`
	Recoveries uint64 `json:"recoveries,omitempty"`
}

// WALSyncPolicy selects when an acknowledged write is durable.
type WALSyncPolicy int

const (
	// WALSyncAlways fsyncs before acknowledging a write; concurrent
	// writers share one group-commit fsync. No acknowledged write is
	// ever lost to a crash.
	WALSyncAlways WALSyncPolicy = iota
	// WALSyncInterval fsyncs on a background ticker; a crash may lose
	// up to the last interval of acknowledged writes.
	WALSyncInterval
	// WALSyncNone leaves flushing to the OS page cache; a crash may
	// lose anything since the last OS writeback (a clean Close still
	// syncs).
	WALSyncNone
)

// String returns the flag spelling ("always", "interval", "none").
func (p WALSyncPolicy) String() string { return p.policy().String() }

// ParseWALSyncPolicy parses the flag spelling of a policy.
func ParseWALSyncPolicy(s string) (WALSyncPolicy, error) {
	pol, err := wal.ParseSyncPolicy(s)
	if err != nil {
		return 0, err
	}
	switch pol {
	case wal.SyncInterval:
		return WALSyncInterval, nil
	case wal.SyncNone:
		return WALSyncNone, nil
	}
	return WALSyncAlways, nil
}

func (p WALSyncPolicy) policy() wal.SyncPolicy {
	switch p {
	case WALSyncInterval:
		return wal.SyncInterval
	case WALSyncNone:
		return wal.SyncNone
	}
	return wal.SyncAlways
}

// WALOptions configures OpenLiveShardedIndex.
type WALOptions struct {
	// Dir is the WAL directory: segment files plus the newest
	// checkpoint live here. Created if missing.
	Dir string
	// Sync selects the durability policy (default WALSyncAlways).
	Sync WALSyncPolicy
	// SyncEvery is the fsync period under WALSyncInterval (0: 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates segment files past this size (0: 64 MiB).
	SegmentBytes int64
	// FS is the filesystem all WAL and checkpoint IO goes through
	// (nil: the real OS). Tests inject a fault injector here.
	FS FS
	// ProbeMin and ProbeMax bound the degraded-mode recovery probe's
	// capped exponential backoff with jitter (0: 100ms and 5s). Tests
	// shrink them so wedge→recover cycles run in milliseconds.
	ProbeMin, ProbeMax time.Duration
}

func (o WALOptions) withProbeDefaults() WALOptions {
	if o.ProbeMin <= 0 {
		o.ProbeMin = 100 * time.Millisecond
	}
	if o.ProbeMax < o.ProbeMin {
		o.ProbeMax = 5 * time.Second
		if o.ProbeMax < o.ProbeMin {
			o.ProbeMax = o.ProbeMin
		}
	}
	return o
}

// walOptions translates to the internal log options — one place, so
// boot and every probe reopen agree.
func (o WALOptions) walOptions() wal.Options {
	return wal.Options{
		Sync:         o.Sync.policy(),
		SyncEvery:    o.SyncEvery,
		SegmentBytes: o.SegmentBytes,
		FS:           o.FS,
	}
}

// WALStats is a point-in-time view of the durability layer.
type WALStats struct {
	// Records counts appends accepted since open (replayed history is
	// not re-counted).
	Records uint64
	// Segments and Bytes size the live segment files.
	Segments int
	Bytes    int64
	// Fsyncs counts explicit fsyncs; MaxFsync is the slowest observed.
	Fsyncs   uint64
	MaxFsync time.Duration
	// SinceCheckpoint is the time since the last completed checkpoint.
	SinceCheckpoint time.Duration
}

// liveWAL is the durability state hung off a LiveShardedIndex opened
// with OpenLiveShardedIndex.
type liveWAL struct {
	dir  string
	opts WALOptions // normalized: probe defaults applied
	fs   faultfs.FS
	// mu serializes checkpoints (capture + file write + truncation).
	mu sync.Mutex
	// lastCkpt is the unix-nano completion time of the last checkpoint.
	lastCkpt atomic.Int64

	// Recovery probe lifecycle: probing dedups spawns (one probe
	// goroutine at a time), stop ends it on Close, wg waits for it so
	// Close never leaks the goroutine.
	probing    atomic.Bool
	stop       chan struct{}
	stopOnce   sync.Once
	wg         sync.WaitGroup
	probes     atomic.Uint64
	recoveries atomic.Uint64
}

// checkpointPrefix names checkpoint files; the embedded index is the
// WAL cut, so the file itself records which segments remain relevant.
const checkpointPrefix = "checkpoint-"

func checkpointName(cut uint64) string {
	return fmt.Sprintf("%s%08d.tqlive", checkpointPrefix, cut)
}

// parseCheckpointName inverts checkpointName; ok is false for foreign
// files (including in-flight .tmp checkpoints).
func parseCheckpointName(name string) (uint64, bool) {
	var cut uint64
	if _, err := fmt.Sscanf(name, checkpointPrefix+"%d.tqlive", &cut); err != nil {
		return 0, false
	}
	if name != checkpointName(cut) {
		return 0, false
	}
	return cut, true
}

// latestCheckpoint finds the newest durable checkpoint in dir,
// returning its cut and path, or ok=false when none exists.
func latestCheckpoint(fsys faultfs.FS, dir string) (cut uint64, path string, ok bool, err error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, "", false, err
	}
	for _, e := range ents {
		if c, isCkpt := parseCheckpointName(e.Name()); isCkpt && (!ok || c > cut) {
			cut, path, ok = c, filepath.Join(dir, e.Name()), true
		}
	}
	return cut, path, ok, nil
}

// OpenLiveShardedIndex opens (or creates) a durable live index rooted
// at opts.Dir. On first open the index comes from bootstrap — a closure
// building the initial corpus (from a dataset, a snapshot, or empty) —
// and an initial checkpoint is written immediately, so recovery never
// depends on reproducing the bootstrap. On later opens bootstrap is NOT
// called: the newest checkpoint is restored and the post-checkpoint
// segments are replayed on top. Either way the caller gets an index
// whose writes are durable per opts.Sync; Close it to release the log.
func OpenLiveShardedIndex(opts WALOptions, pol LivePolicy, bootstrap func() (*LiveShardedIndex, error)) (*LiveShardedIndex, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("trajcover: WAL dir required")
	}
	opts = opts.withProbeDefaults()
	fsys := faultfs.OrOS(opts.FS)
	if err := fsys.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	cut, ckptPath, haveCkpt, err := latestCheckpoint(fsys, opts.Dir)
	if err != nil {
		return nil, err
	}
	var x *LiveShardedIndex
	if haveCkpt {
		f, err := faultfs.Open(fsys, ckptPath)
		if err != nil {
			return nil, err
		}
		x, err = ReadLiveSnapshot(f, pol)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("trajcover: restore %s: %w", filepath.Base(ckptPath), err)
		}
	} else {
		if x, err = bootstrap(); err != nil {
			return nil, err
		}
		if x == nil {
			return nil, fmt.Errorf("trajcover: bootstrap returned no index")
		}
	}
	// Replay the acknowledged history since the checkpoint. Apply
	// failures are corruption: the log recorded only writes the index
	// had accepted, in apply order.
	_, _, err = wal.ReplayFrom(opts.Dir, cut, func(rec wal.Record) error {
		switch rec.Op {
		case wal.OpInsert:
			if err := x.s.Insert(rec.Trajectory); err != nil {
				return fmt.Errorf("%w: replay insert %d: %v", wal.ErrCorrupt, rec.Trajectory.ID, err)
			}
		case wal.OpDelete:
			found, err := x.s.Delete(rec.ID)
			if err != nil {
				return err
			}
			if !found {
				return fmt.Errorf("%w: replay delete %d: not present", wal.ErrCorrupt, rec.ID)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	log, err := wal.Open(opts.Dir, opts.walOptions())
	if err != nil {
		return nil, err
	}
	x.s.AttachWAL(log)
	x.wal = &liveWAL{dir: opts.Dir, opts: opts, fs: fsys, stop: make(chan struct{})}
	// Checkpoint now: the restored-or-bootstrapped state becomes the
	// recovery base, bounding the next boot's replay to this session's
	// segments (and freeing the replayed ones). A failure here is a hard
	// boot error, not a degradation — nothing has been served yet.
	x.wal.mu.Lock()
	_, err = x.checkpointLocked()
	x.wal.mu.Unlock()
	if err != nil {
		log.Close()
		return nil, err
	}
	// From here on, WAL wedges and checkpoint failures degrade instead
	// of wedging forever: the hook spawns the backoff probe.
	x.s.SetDegradeHook(func(error) { x.startProbe() })
	return x, nil
}

// Checkpoint writes a durable checkpoint (TQLIVE02 snapshot of a
// write-consistent epoch cut) into the WAL directory and truncates the
// segments it covers. Writes and queries keep running; only the epoch
// capture + WAL rotation (microseconds) excludes writers. Requires an
// index opened with OpenLiveShardedIndex.
func (x *LiveShardedIndex) Checkpoint() error {
	if x.wal == nil {
		return fmt.Errorf("trajcover: no WAL attached (open with OpenLiveShardedIndex)")
	}
	x.wal.mu.Lock()
	_, err := x.checkpointLocked()
	x.wal.mu.Unlock()
	if err != nil {
		x.degradeOnCheckpoint(err)
	}
	return err
}

// degradeOnCheckpoint flips the index to degraded read-only mode after
// a runtime checkpoint failure: segments cannot be truncated and the
// recovery base cannot advance, so durability is no longer maintained.
// The degrade hook spawns the probe, which retries the checkpoint.
func (x *LiveShardedIndex) degradeOnCheckpoint(err error) {
	x.s.EnterDegraded(fmt.Errorf("checkpoint: %w", err))
}

// CheckpointTo is Checkpoint that additionally streams the checkpoint
// bytes to w (e.g. an HTTP response): the local checkpoint is made
// durable FIRST, then copied out, so a slow or failing client can never
// leave segments truncated without a durable snapshot covering them.
func (x *LiveShardedIndex) CheckpointTo(w io.Writer) error {
	if x.wal == nil {
		return fmt.Errorf("trajcover: no WAL attached (open with OpenLiveShardedIndex)")
	}
	x.wal.mu.Lock()
	path, err := x.checkpointLocked()
	if err != nil {
		x.wal.mu.Unlock()
		// The local checkpoint failed — a disk problem, not a client
		// problem: degrade like Checkpoint does.
		x.degradeOnCheckpoint(err)
		return err
	}
	defer x.wal.mu.Unlock()
	f, err := faultfs.Open(x.wal.fs, path)
	if err != nil {
		return err
	}
	// A copy failure past this point is the CLIENT's stream breaking
	// (the checkpoint itself is durable) — reported, never degrading.
	_, err = io.Copy(w, f)
	f.Close()
	return err
}

// checkpointLocked runs one checkpoint and returns the durable
// checkpoint file's path. Caller holds x.wal.mu.
func (x *LiveShardedIndex) checkpointLocked() (string, error) {
	eps, cut, err := x.s.CheckpointCapture()
	if err != nil {
		return "", err
	}
	final := filepath.Join(x.wal.dir, checkpointName(cut))
	tmp := final + ".tmp"
	fsys := x.wal.fs
	f, err := faultfs.Create(fsys, tmp)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = writeLiveSnapshot(bw, eps, x.s.PartitionerKind())
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(tmp)
		return "", err
	}
	if err := fsys.Rename(tmp, final); err != nil {
		fsys.Remove(tmp)
		return "", err
	}
	if err := fsys.SyncDir(x.wal.dir); err != nil {
		return "", err
	}
	// The new checkpoint is durable: pre-cut segments and older
	// checkpoints are now dead weight. Failures past this point do not
	// undo the checkpoint.
	if err := x.s.WAL().RemoveBefore(cut); err != nil {
		return final, err
	}
	if err := removeOldCheckpoints(fsys, x.wal.dir, cut); err != nil {
		return final, err
	}
	x.wal.lastCkpt.Store(time.Now().UnixNano())
	return final, nil
}

// removeOldCheckpoints drops checkpoint files with cuts below keep,
// plus any abandoned .tmp files.
func removeOldCheckpoints(fsys faultfs.FS, dir string, keep uint64) error {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return err
	}
	var stale []string
	for _, e := range ents {
		name := e.Name()
		if c, ok := parseCheckpointName(name); ok && c < keep {
			stale = append(stale, name)
			continue
		}
		// Abandoned in-flight checkpoints from a crashed writer.
		if strings.HasSuffix(name, ".tmp") {
			if _, ok := parseCheckpointName(strings.TrimSuffix(name, ".tmp")); ok {
				stale = append(stale, name)
			}
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if len(stale) > 0 {
		return fsys.SyncDir(dir)
	}
	return nil
}

// startProbe spawns the degraded-mode recovery goroutine if one is not
// already running. Called from the degrade hook (on the failing
// writer's goroutine) and from the probe's own tail when a fresh
// degradation raced its exit.
func (x *LiveShardedIndex) startProbe() {
	w := x.wal
	if w == nil {
		return
	}
	if !w.probing.CompareAndSwap(false, true) {
		return // a probe is already running
	}
	select {
	case <-w.stop:
		w.probing.Store(false)
		return
	default:
	}
	w.wg.Add(1)
	go x.probeLoop()
}

// probeLoop retries recovery with capped exponential backoff + jitter
// until the index is healthy or the WAL is closed. Exactly one runs at
// a time (w.probing); Close waits for it via w.wg, so wedge→recover
// cycles never leak goroutines.
func (x *LiveShardedIndex) probeLoop() {
	w := x.wal
	defer w.wg.Done()
	backoff := w.opts.ProbeMin
	for {
		// Full jitter over [backoff, 1.5*backoff): concurrent tenants
		// degraded by one bad disk don't thunder back in lockstep.
		d := backoff + time.Duration(rand.Int63n(int64(backoff)/2+1))
		select {
		case <-w.stop:
			w.probing.Store(false)
			return
		case <-time.After(d):
		}
		if !x.s.Degraded() {
			break // recovered by other means (e.g. an explicit retry)
		}
		w.probes.Add(1)
		if err := x.tryRecover(); err == nil {
			w.recoveries.Add(1)
			break
		}
		backoff *= 2
		if backoff > w.opts.ProbeMax {
			backoff = w.opts.ProbeMax
		}
	}
	w.probing.Store(false)
	// A degradation that landed between the recovery and the flag reset
	// found probing=true and did not spawn — respawn for it.
	if x.s.Degraded() {
		x.startProbe()
	}
}

// tryRecover attempts one wedge→healthy transition. Sequence — each
// step justified by the ack invariant (nothing acked that disk
// refused; recovery replays nothing):
//
//  1. Close the wedged log (best effort; it already refuses writes)
//     and open a successor over the same directory. wal.Open verifies
//     and truncates the torn tail, and appends resume in a FRESH
//     segment — replayed bytes are immutable history.
//  2. Swap the successor in while writes are still rejected, so no
//     write can race the half-installed log.
//  3. Checkpoint. The in-memory state may contain applied-but-unacked
//     writes whose records the dying disk never persisted; the
//     checkpoint makes memory and disk agree again (and cuts away the
//     wedged segments) BEFORE any new write is accepted, so a later
//     crash's replay can never see a delete of a record it skipped.
//  4. Exit degraded mode: writes flow again.
func (x *LiveShardedIndex) tryRecover() error {
	w := x.wal
	if old := x.s.WAL(); old != nil {
		old.Close()
	}
	log, err := wal.Open(w.dir, w.opts.walOptions())
	if err != nil {
		return err
	}
	x.s.SwapWAL(log)
	w.mu.Lock()
	_, err = x.checkpointLocked()
	w.mu.Unlock()
	if err != nil {
		// The next attempt will close this log and open its successor.
		return err
	}
	x.s.ExitDegraded()
	return nil
}

// Health snapshots the degraded-mode state machine and the recovery
// probe counters. Usable on any live index; the probe counters are
// zero without a WAL.
func (x *LiveShardedIndex) Health() Health {
	h := x.s.Health()
	out := Health{
		Degraded: h.Degraded,
		Cause:    h.Cause,
		Since:    h.Since,
		Entries:  h.Entries,
		Exits:    h.Exits,
	}
	if x.wal != nil {
		out.Probes = x.wal.probes.Load()
		out.Recoveries = x.wal.recoveries.Load()
	}
	return out
}

// Degraded reports whether the index is currently rejecting writes in
// degraded read-only mode.
func (x *LiveShardedIndex) Degraded() bool { return x.s.Degraded() }

// WALStats returns durability counters; ok is false for an index with
// no WAL.
func (x *LiveShardedIndex) WALStats() (WALStats, bool) {
	if x.wal == nil {
		return WALStats{}, false
	}
	st := x.s.WAL().Stats()
	out := WALStats{
		Records:  st.Records,
		Segments: st.Segments,
		Bytes:    st.Bytes,
		Fsyncs:   st.Fsyncs,
		MaxFsync: time.Duration(st.MaxFsyncNanos),
	}
	if at := x.wal.lastCkpt.Load(); at > 0 {
		out.SinceCheckpoint = time.Since(time.Unix(0, at))
	}
	return out, true
}

// Close releases the WAL (flushing and fsyncing its tail) after
// stopping the degraded-mode recovery probe, if one is running.
// Acknowledged writes are durable before Close per the sync policy;
// Close makes the unacknowledged tail durable too. Queries remain
// usable; further writes fail. No-op for an index without a WAL.
// Idempotent.
func (x *LiveShardedIndex) Close() error {
	if x.wal == nil {
		return nil
	}
	x.wal.stopOnce.Do(func() { close(x.wal.stop) })
	x.wal.wg.Wait()
	if log := x.s.WAL(); log != nil {
		return log.Close()
	}
	return nil
}
