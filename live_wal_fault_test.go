package trajcover

// The degraded-mode property suite: scripted and seeded-random disk
// fault schedules injected under the WAL and checkpoint IO, asserting
// the PR's three claims. (1) Ack invariant: answers stay byte-identical
// to a fresh build of a history prefix containing every acknowledged
// write, through wedges and recoveries, with nothing replayed and
// nothing acked that the disk refused. (2) The degraded state machine
// is monotone and observable: writes fail fast with ErrDegraded,
// queries keep serving, Entries/Exits only grow, and the backoff probe
// exits degraded mode without a process restart. (3) No goroutine leaks
// across wedge→recover cycles. The CI chaos job runs this under -race
// with TRAJCOVER_STRESS.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/trajcover/trajcover/internal/faultfs"
)

// faultWALOptions are crashWALOptions plus an injector and a probe fast
// enough for tests (wedge→recover cycles in milliseconds).
func faultWALOptions(dir string, inj *faultfs.Injector) WALOptions {
	o := crashWALOptions(dir)
	o.FS = inj
	o.ProbeMin = 2 * time.Millisecond
	o.ProbeMax = 50 * time.Millisecond
	return o
}

// waitHealthy polls until the index exits degraded mode — the probe's
// job, never the test's.
func waitHealthy(t *testing.T, x *Index, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for x.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("probe did not recover within %v: health %+v", timeout, x.Health())
		}
		time.Sleep(time.Millisecond)
	}
}

// applyOp applies one scripted op, riding out degraded windows: on
// ErrDegraded it waits for the probe to recover and retries. A retried
// insert that comes back ErrDuplicateID was applied-but-unacked when
// the disk died (the recovery checkpoint made it durable); a retried
// delete of an already-applied target returns (false, nil). Both count
// as done.
func applyOp(t *testing.T, x *Index, op crashOp) {
	t.Helper()
	for {
		var err error
		if op.insert != nil {
			err = x.Insert(op.insert)
		} else {
			_, err = x.Delete(op.del)
		}
		switch {
		case err == nil:
			return
		case op.insert != nil && errors.Is(err, ErrDuplicateID):
			return
		case IsDegraded(err):
			waitHealthy(t, x, 20*time.Second)
		default:
			t.Fatalf("write failed outside the degraded contract: %v", err)
		}
	}
}

// assertMonotone checks the observable transition invariant.
func assertMonotone(t *testing.T, h Health) {
	t.Helper()
	diff := h.Entries - h.Exits
	if h.Exits > h.Entries || diff > 1 {
		t.Fatalf("non-monotone transitions: %+v", h)
	}
	if (diff == 1) != h.Degraded {
		t.Fatalf("Entries-Exits=%d disagrees with Degraded=%v: %+v", diff, h.Degraded, h)
	}
}

// TestDegradedModeAndProbeRecovery is the scripted anchor: one injected
// fsync failure mid-history must flip the index to degraded (typed
// rejection, cause on Health, queries byte-identical to the acked
// prefix) and the backoff probe must restore writable service without
// a restart; the full history then lands and survives a reopen.
func TestDegradedModeAndProbeRecovery(t *testing.T) {
	base, ops, routes := crashWorkload(77)
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, 77)
	x, err := OpenIndex(faultWALOptions(dir, inj), crashPolicy(), crashBootstrap(base))
	if err != nil {
		t.Fatal(err)
	}

	half := len(ops) / 2
	for _, op := range ops[:half] {
		applyOp(t, x, op)
	}

	// Wedge the disk: the next two fsyncs fail (the second hits the
	// probe's first reopen, exercising the backoff path).
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Nth: 1, Times: 2})
	var wedgeErr error
	if ops[half].insert != nil {
		wedgeErr = x.Insert(ops[half].insert)
	} else {
		_, wedgeErr = x.Delete(ops[half].del)
	}
	if !IsDegraded(wedgeErr) {
		t.Fatalf("write over failing fsync: got %v, want ErrDegraded", wedgeErr)
	}
	if !x.Degraded() {
		t.Fatal("index not degraded after wedge")
	}
	h := x.Health()
	assertMonotone(t, h)
	if h.Entries != 1 || h.Cause == "" {
		t.Fatalf("degraded health %+v", h)
	}

	// Degraded queries serve the last published epochs: byte-identical
	// to a fresh build of a history prefix containing every acked write
	// (the wedged op may or may not be applied in memory).
	n := matchPrefix(base, ops, corpusOf(t, x))
	if n < half || n > half+1 {
		t.Fatalf("degraded corpus matches prefix %d, want %d or %d", n, half, half+1)
	}
	assertSameAnswers(t, x, freshBuild(t, base, ops, n), routes)

	// The probe recovers on its own once the injected faults are spent.
	waitHealthy(t, x, 20*time.Second)
	h = x.Health()
	assertMonotone(t, h)
	if h.Entries != 1 || h.Exits != 1 {
		t.Fatalf("post-recovery transitions %+v", h)
	}
	if h.Probes == 0 || h.Recoveries != 1 {
		t.Fatalf("probe counters %+v", h)
	}

	// The rest of the history lands (the wedged op retried first).
	for _, op := range ops[half:] {
		applyOp(t, x, op)
	}
	if got := matchPrefix(base, ops, corpusOf(t, x)); got != len(ops) {
		t.Fatalf("final corpus matches prefix %d, want full history %d", got, len(ops))
	}
	assertSameAnswers(t, x, freshBuild(t, base, ops, len(ops)), routes)
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything acked survived the wedge→recover cycle.
	inj.Heal()
	x2, err := OpenIndex(faultWALOptions(dir, inj), crashPolicy(), func() (*Index, error) {
		return nil, fmt.Errorf("bootstrap must not run on reopen")
	})
	if err != nil {
		t.Fatal(err)
	}
	defer x2.Close()
	if got := matchPrefix(base, ops, corpusOf(t, x2)); got != len(ops) {
		t.Fatalf("reopened corpus matches prefix %d, want %d", got, len(ops))
	}
	assertSameAnswers(t, x2, freshBuild(t, base, ops, len(ops)), routes)
}

// TestDegradedCheckpointFailure: a failed checkpoint (rename fault)
// must degrade the index — truncation stalled, durability no longer
// advancing — and the probe's retried checkpoint must recover it.
func TestDegradedCheckpointFailure(t *testing.T) {
	base, ops, _ := crashWorkload(78)
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, 78)
	x, err := OpenIndex(faultWALOptions(dir, inj), crashPolicy(), crashBootstrap(base))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	for _, op := range ops[:200] {
		applyOp(t, x, op)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpRename, Nth: 1})
	if err := x.Checkpoint(); err == nil {
		t.Fatal("checkpoint over failing rename succeeded")
	}
	if !x.Degraded() {
		t.Fatal("failed checkpoint did not degrade the index")
	}
	if err := x.Insert(ops[200].insert); !IsDegraded(err) {
		// ops[200] may be a delete; only assert when it's an insert.
		if ops[200].insert != nil {
			t.Fatalf("degraded write: got %v", err)
		}
	}
	waitHealthy(t, x, 20*time.Second)
	for _, op := range ops[200:300] {
		applyOp(t, x, op)
	}
	if got := matchPrefix(base, ops, corpusOf(t, x)); got != 300 {
		t.Fatalf("corpus matches prefix %d, want 300", got)
	}
	assertMonotone(t, x.Health())
}

// TestChaosFaultSchedules is the randomized arm: seeded-random fault
// schedules (fsync errors, torn writes, ENOSPC, failed rotations and
// checkpoint renames, injected latency) land while the scripted history
// applies with concurrent readers hammering queries. Every wedge must
// recover via the probe, every op must eventually ack exactly once, the
// final corpus must be byte-identical to a fresh build of the full
// history — and the wedge→recover cycles must not leak goroutines.
func TestChaosFaultSchedules(t *testing.T) {
	baselineGoroutines := runtime.NumGoroutine()
	rounds := walStressN(3)
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprint("round", round), func(t *testing.T) {
			seed := int64(9000 + 13*round)
			base, ops, routes := crashWorkload(seed)
			rng := rand.New(rand.NewSource(seed + 5))
			dir := t.TempDir()
			inj := faultfs.NewInjector(nil, seed)
			x, err := OpenIndex(faultWALOptions(dir, inj), crashPolicy(), crashBootstrap(base))
			if err != nil {
				t.Fatal(err)
			}

			// Concurrent readers: every answer must come from some
			// published epoch — never a torn state — while faults land.
			stopReaders := make(chan struct{})
			readerErr := make(chan error, 1)
			go func() {
				q := Query{Scenario: Binary, Psi: DefaultPsi}
				for {
					select {
					case <-stopReaders:
						readerErr <- nil
						return
					default:
					}
					if _, err := x.ServiceValues(routes[:4], q, 2); err != nil {
						readerErr <- fmt.Errorf("reader: %w", err)
						return
					}
					time.Sleep(100 * time.Microsecond)
				}
			}()

			// The fault schedule: a handful of events at random points in
			// the history, drawn from every fault class the injector
			// supports. Times>1 makes some faults outlive the wedge into
			// the probe's first recovery attempts (backoff under fire).
			faults := []faultfs.Rule{
				{Op: faultfs.OpSync, Nth: 1, Times: 1 + rng.Intn(3)},
				{Op: faultfs.OpWrite, Nth: 1, Fault: faultfs.Fault{ShortWrite: true}},
				{Op: faultfs.OpWrite, Nth: 1, Fault: faultfs.Fault{Err: faultfs.ErrNoSpace}},
				{Op: faultfs.OpCreate, Nth: 1, Times: 1 + rng.Intn(2)},
				{Op: faultfs.OpRename, Nth: 1},
				{Op: faultfs.OpSyncDir, Nth: 1},
				{Op: faultfs.OpSync, Nth: 1, Fault: faultfs.Fault{Latency: time.Millisecond}},
			}
			events := map[int]faultfs.Rule{}
			for i := 0; i < 4; i++ {
				events[rng.Intn(len(ops))] = faults[rng.Intn(len(faults))]
			}

			wedges := 0
			for i, op := range ops {
				if rule, hit := events[i]; hit {
					inj.Add(rule)
					wedges++
				}
				applyOp(t, x, op)
				// An occasional explicit checkpoint mid-row, so rename/
				// syncdir faults have a durable-path victim to hit.
				if i%400 == 399 {
					if err := x.Checkpoint(); err != nil && !x.Degraded() {
						t.Fatalf("checkpoint failed without degrading: %v", err)
					}
					waitHealthy(t, x, 20*time.Second)
				}
				if i%500 == 0 {
					assertMonotone(t, x.Health())
				}
			}
			waitHealthy(t, x, 20*time.Second)
			close(stopReaders)
			if err := <-readerErr; err != nil {
				t.Fatal(err)
			}

			h := x.Health()
			assertMonotone(t, h)
			if h.Entries != h.Exits {
				t.Fatalf("unbalanced transitions after recovery: %+v", h)
			}
			if got := matchPrefix(base, ops, corpusOf(t, x)); got != len(ops) {
				t.Fatalf("final corpus matches prefix %d, want %d (health %+v, injected %d)",
					got, len(ops), h, inj.Injected())
			}
			assertSameAnswers(t, x, freshBuild(t, base, ops, len(ops)), routes)
			if err := x.Close(); err != nil {
				t.Fatal(err)
			}

			// Reopen with a clean disk: the acked history survived every
			// injected fault (un-acked writes were checkpointed or never
			// applied — either way the corpus is exactly the full history).
			x2, err := OpenIndex(crashWALOptions(dir), crashPolicy(), func() (*Index, error) {
				return nil, fmt.Errorf("bootstrap must not run on reopen")
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := matchPrefix(base, ops, corpusOf(t, x2)); got != len(ops) {
				t.Fatalf("reopened corpus matches prefix %d, want %d", got, len(ops))
			}
			x2.Close()
		})
	}

	// No goroutine leaks across all wedge→recover cycles: probes exit on
	// recovery or Close, readers and sync tickers are joined.
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baselineGoroutines+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak across wedge→recover cycles: %d -> %d\n%s",
				baselineGoroutines, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDegradedTenantIsolation: a fault schedule scoped to one tenant's
// directory must degrade that tenant alone — the co-tenant keeps
// accepting writes with zero degraded transitions — and the faulted
// tenant's own probe recovers it without touching the healthy one.
func TestDegradedTenantIsolation(t *testing.T) {
	root := t.TempDir()
	inj := faultfs.NewInjector(nil, 55)
	wopts := faultWALOptions("", inj) // Dir ignored by the registry
	reg, err := OpenTenantRegistry(TenantRegistryOptions{
		Root: root,
		WAL:  wopts,
		Index: IndexOptions{
			Ordering:    ZOrdering,
			Policy:      crashPolicy(),
			Shards:      2,
			Partitioner: HashPartitioner(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	city := NewYorkCity()
	users := TaxiTrips(city, 400, 56)
	write := func(id string, u *Trajectory) error {
		idx, release, err := reg.Acquire(id, true)
		if err != nil {
			return err
		}
		defer release()
		return idx.Insert(u)
	}
	for i := 0; i < 50; i++ {
		if err := write("alpha", users[i]); err != nil {
			t.Fatal(err)
		}
		if err := write("beta", users[100+i]); err != nil {
			t.Fatal(err)
		}
	}

	// Wedge only alpha's disk: every rule is scoped to its subtree.
	alphaDir := filepath.Join(root, "alpha") + string(filepath.Separator)
	inj.Add(faultfs.Rule{Op: faultfs.OpSync, Path: alphaDir, Nth: 1, Times: 2})
	if err := write("alpha", users[50]); !IsDegraded(err) {
		t.Fatalf("alpha write over failing fsync: got %v", err)
	}
	deg := reg.Degraded()
	if _, ok := deg["alpha"]; !ok || len(deg) != 1 {
		t.Fatalf("Degraded() = %v, want exactly alpha", deg)
	}

	// Beta is untouched while alpha is down: writes ack, zero degraded
	// transitions ever recorded.
	for i := 50; i < 80; i++ {
		if err := write("beta", users[100+i]); err != nil {
			t.Fatalf("healthy co-tenant write failed during alpha's wedge: %v", err)
		}
	}
	bh, err := reg.Health("beta")
	if err != nil {
		t.Fatal(err)
	}
	if bh.Degraded || bh.Entries != 0 {
		t.Fatalf("beta health %+v, want pristine", bh)
	}

	// Alpha's probe recovers alpha on its own.
	deadline := time.Now().Add(20 * time.Second)
	for {
		ah, err := reg.Health("alpha")
		if err != nil {
			t.Fatal(err)
		}
		if !ah.Degraded {
			if ah.Recoveries == 0 {
				t.Fatalf("alpha recovered without a probe recovery: %+v", ah)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("alpha probe did not recover: %+v", ah)
		}
		time.Sleep(time.Millisecond)
	}
	if err := write("alpha", users[51]); err != nil {
		t.Fatalf("alpha write after recovery: %v", err)
	}
	if deg := reg.Degraded(); len(deg) != 0 {
		t.Fatalf("Degraded() after recovery = %v", deg)
	}
}

// lastWALFile returns the highest index among dir's files named
// prefix<index>suffix: the newest segment or checkpoint.
func lastWALFile(t *testing.T, dir, prefix, suffix string) uint64 {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, prefix+"*"+suffix))
	if err != nil || len(names) == 0 {
		t.Fatalf("no %s*%s file in %s (err %v)", prefix, suffix, dir, err)
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(names[len(names)-1]), prefix), suffix)
	idx, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// refuseBootstrap stands in for the bootstrap of a reopened index.
func refuseBootstrap() (*Index, error) {
	return nil, fmt.Errorf("bootstrap must not run on reopen")
}

// TestReopenTornHeaderThenFailedCheckpoint: a crash tore the header of
// the segment a rotation had just created, and the next boot's first
// checkpoint fails with ENOSPC. That boot fails, but it must not strand
// the log: the boot after it restores every acknowledged write.
func TestReopenTornHeaderThenFailedCheckpoint(t *testing.T) {
	base, ops, _ := crashWorkload(56)
	dir := t.TempDir()
	n := buildCrashedWALDir(t, dir, base, ops)
	next := lastWALFile(t, dir, "wal-", ".seg") + 1
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", next)), []byte("TQWAL"), 0o644); err != nil {
		t.Fatal(err)
	}
	inj := faultfs.NewInjector(nil, 56)
	inj.Add(faultfs.Rule{Op: faultfs.OpCreate, Path: "checkpoint-", Nth: 1, Fault: faultfs.Fault{Err: faultfs.ErrNoSpace}})
	if x, err := OpenIndex(faultWALOptions(dir, inj), crashPolicy(), refuseBootstrap); !errors.Is(err, syscall.ENOSPC) {
		if x != nil {
			x.Close()
		}
		t.Fatalf("boot whose checkpoint hits ENOSPC = %v, want ENOSPC", err)
	}
	x, err := OpenIndex(crashWALOptions(dir), crashPolicy(), refuseBootstrap)
	if err != nil {
		t.Fatalf("boot after the failed checkpoint: %v", err)
	}
	defer x.Close()
	if got := matchPrefix(base, ops, corpusOf(t, x)); got != n {
		t.Fatalf("reboot restored history prefix %d, want every acknowledged write (%d)", got, n)
	}
}

// TestReopenReplaysThroughWALFS: the boot's replay reads the log
// through WALOptions.FS, so a fault injected on opening the first
// segment at the checkpoint's cut fails the boot.
func TestReopenReplaysThroughWALFS(t *testing.T) {
	base, ops, _ := crashWorkload(57)
	dir := t.TempDir()
	opts := crashWALOptions(dir)
	opts.SegmentBytes = 512
	x, err := OpenIndex(opts, crashPolicy(), crashBootstrap(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:40] {
		applyOp(t, x, op)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	cut := lastWALFile(t, dir, "checkpoint-", ".tqlive")
	if last := lastWALFile(t, dir, "wal-", ".seg"); last <= cut {
		t.Fatalf("want segments past the cut %d, newest is %d", cut, last)
	}
	inj := faultfs.NewInjector(nil, 57)
	inj.Add(faultfs.Rule{Op: faultfs.OpOpen, Path: fmt.Sprintf("wal-%08d.seg", cut), Nth: 1})
	opts.FS = inj
	if x, err := OpenIndex(opts, crashPolicy(), refuseBootstrap); !errors.Is(err, faultfs.ErrInjected) {
		if x != nil {
			x.Close()
		}
		t.Fatalf("boot with segment %d unopenable = %v (%d faults injected), want the injected error", cut, err, inj.Injected())
	}
}

// countingFS counts the bytes read from each file opened through it.
type countingFS struct {
	faultfs.FS
	mu   sync.Mutex
	read map[string]int64 // by base name
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (f countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.mu.Lock()
	f.fs.read[filepath.Base(f.Name())] += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

// TestReopenDecodesFinalSegmentOnce: a boot reads every segment past the
// checkpoint's cut exactly once — the replay's scan of the final one is
// what the log's tail repair needs, so nothing reads it again.
func TestReopenDecodesFinalSegmentOnce(t *testing.T) {
	base, ops, _ := crashWorkload(58)
	dir := t.TempDir()
	opts := crashWALOptions(dir)
	opts.SegmentBytes = 4096
	x, err := OpenIndex(opts, crashPolicy(), crashBootstrap(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:300] {
		applyOp(t, x, op)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	cut := lastWALFile(t, dir, "checkpoint-", ".tqlive")
	last := lastWALFile(t, dir, "wal-", ".seg")
	if last <= cut {
		t.Fatalf("want segments past the cut %d, newest is %d", cut, last)
	}
	sizes := map[string]int64{}
	for idx := cut; idx <= last; idx++ {
		name := fmt.Sprintf("wal-%08d.seg", idx)
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sizes[name] = info.Size()
	}

	counting := &countingFS{FS: faultfs.OS, read: map[string]int64{}}
	opts.FS = counting
	x, err = OpenIndex(opts, crashPolicy(), refuseBootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := matchPrefix(base, ops, corpusOf(t, x)); got != 300 {
		t.Fatalf("reboot restored history prefix %d, want 300", got)
	}
	for name, size := range sizes {
		if got := counting.read[name]; got != size {
			t.Errorf("boot read %d bytes of %s (%d bytes): want it read once", got, name, size)
		}
	}
	t.Logf("segments %d..%d, the final one %d bytes, read %d", cut, last, sizes[fmt.Sprintf("wal-%08d.seg", last)], counting.read[fmt.Sprintf("wal-%08d.seg", last)])
}

// dirDigest maps every file in dir to a digest of its bytes.
func dirDigest(t *testing.T, dir string) map[string][32]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][32]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = sha256.Sum256(b)
	}
	return out
}

// TestReopenListingFault: a boot that cannot list its WAL directory — the
// checkpoint lookup's listing, or the log's own — fails with that error
// before it writes anything, and the next boot restores every
// acknowledged write.
func TestReopenListingFault(t *testing.T) {
	base, ops, _ := crashWorkload(59)
	dir := t.TempDir()
	n := buildCrashedWALDir(t, dir, base, ops)
	before := dirDigest(t, dir)
	for nth := uint64(1); nth <= 2; nth++ {
		inj := faultfs.NewInjector(nil, 59)
		inj.Add(faultfs.Rule{Op: faultfs.OpReadDir, Nth: nth})
		if x, err := OpenIndex(faultWALOptions(dir, inj), crashPolicy(), refuseBootstrap); !errors.Is(err, faultfs.ErrInjected) {
			if x != nil {
				x.Close()
			}
			t.Fatalf("boot with listing %d failing = %v (%d faults injected), want the injected error", nth, err, inj.Injected())
		}
		if after := dirDigest(t, dir); !reflect.DeepEqual(before, after) {
			t.Fatalf("boot with listing %d failing changed the directory: %d files before, %d after", nth, len(before), len(after))
		}
	}
	x, err := OpenIndex(crashWALOptions(dir), crashPolicy(), refuseBootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := matchPrefix(base, ops, corpusOf(t, x)); got != n {
		t.Fatalf("reboot restored history prefix %d, want every acknowledged write (%d)", got, n)
	}
}

// TestCheckpointListingFault: a runtime checkpoint whose truncation
// cannot list the directory (RemoveBefore) fails and degrades the index;
// the probe recovers it, writes go on, and the next boot restores every
// acknowledged write.
func TestCheckpointListingFault(t *testing.T) {
	base, ops, _ := crashWorkload(60)
	dir := t.TempDir()
	inj := faultfs.NewInjector(nil, 60)
	x, err := OpenIndex(faultWALOptions(dir, inj), crashPolicy(), crashBootstrap(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:100] {
		applyOp(t, x, op)
	}
	inj.Add(faultfs.Rule{Op: faultfs.OpReadDir, Nth: 1})
	if err := x.Checkpoint(); !errors.Is(err, faultfs.ErrInjected) {
		x.Close()
		t.Fatalf("checkpoint with its listing failing = %v, want the injected error", err)
	}
	for _, op := range ops[100:200] {
		applyOp(t, x, op)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
	x, err = OpenIndex(crashWALOptions(dir), crashPolicy(), refuseBootstrap)
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if got := matchPrefix(base, ops, corpusOf(t, x)); got != 200 {
		t.Fatalf("reboot restored history prefix %d, want every acknowledged write (200)", got)
	}
}
