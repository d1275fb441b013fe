package trajcover

// Crash-recovery property tests for the WAL-backed live index — the
// prefix-consistency idiom (TestLiveSnapshotUnderWrites) extended
// across process death: a child process runs a scripted write history
// against OpenIndex and is SIGKILLed at a random point; the
// parent reopens the WAL directory and asserts the recovered index is
// byte-identical to a fresh build of a prefix of the history that
// contains every write the child had acknowledged. A separate arm
// truncates and bit-flips segment files at arbitrary offsets and
// asserts recovery either fails loudly or still yields a valid prefix
// — never a panic, never a silently wrong corpus.

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

const (
	walChildEnv = "TRAJCOVER_WAL_CRASH_CHILD"
	walDirEnv   = "TRAJCOVER_WAL_CRASH_DIR"
	walSeedEnv  = "TRAJCOVER_WAL_CRASH_SEED"
	walAckEnv   = "TRAJCOVER_WAL_CRASH_ACK"
)

// walStressN scales crash rounds up under TRAJCOVER_STRESS (the CI
// crash-recovery job sets it).
func walStressN(n int) int {
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		return n * 4
	}
	return n
}

// crashOp is one scripted write: an insert (insert != nil) or a delete.
type crashOp struct {
	insert *Trajectory
	del    ID
}

// crashWorkload deterministically derives the bootstrap corpus, the
// write history, and probe routes from seed — the parent and the child
// process compute identical values from the same seed.
func crashWorkload(seed int64) (base []*Trajectory, ops []crashOp, routes []*Facility) {
	city := NewYorkCity()
	users := TaxiTrips(city, 1200, seed)
	routes = BusRoutes(city, 12, 10, seed+1)
	base = users[:400]
	live := append([]*Trajectory(nil), base...)
	rng := rand.New(rand.NewSource(seed + 2))
	for _, u := range users[400:] {
		if len(live) > 0 && rng.Float64() < 0.3 {
			i := rng.Intn(len(live))
			ops = append(ops, crashOp{del: live[i].ID})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		ops = append(ops, crashOp{insert: u})
		live = append(live, u)
	}
	return base, ops, routes
}

// crashPolicy keeps rebuilds frequent so kills land during swaps too.
func crashPolicy() LivePolicy { return LivePolicy{MaxDelta: 128} }

// crashBootstrap is the first-boot index builder shared by the child
// and the parent's recovery.
func crashBootstrap(base []*Trajectory) func() (*Index, error) {
	return func() (*Index, error) {
		return NewIndex(base, IndexOptions{
			Ordering:    ZOrdering,
			Shards:      2,
			Partitioner: HashPartitioner(),
			Policy:      crashPolicy(),
		})
	}
}

// crashWALOptions uses small segments so histories span several files.
func crashWALOptions(dir string) WALOptions {
	return WALOptions{Dir: dir, Sync: WALSyncAlways, SegmentBytes: 1 << 15}
}

// TestWALCrashChild is the victim process: it opens a WAL-backed index,
// applies the scripted history, and records each acknowledged op index
// in the ack file. The parent SIGKILLs it at a random point. Skipped
// unless spawned by TestWALCrashRecovery.
func TestWALCrashChild(t *testing.T) {
	if os.Getenv(walChildEnv) == "" {
		t.Skip("helper process for TestWALCrashRecovery")
	}
	seed, err := strconv.ParseInt(os.Getenv(walSeedEnv), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	base, ops, _ := crashWorkload(seed)
	idx, err := OpenIndex(crashWALOptions(os.Getenv(walDirEnv)), crashPolicy(), crashBootstrap(base))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	ack, err := os.Create(os.Getenv(walAckEnv))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if op.insert != nil {
			if err := idx.Insert(op.insert); err != nil {
				t.Fatalf("child insert %d: %v", i, err)
			}
		} else if _, err := idx.Delete(op.del); err != nil {
			t.Fatalf("child delete %d: %v", i, err)
		}
		// The write is acknowledged: record it. Unbuffered, so the
		// parent (same kernel, so SIGKILL loses nothing written) sees
		// every acked index; a torn final line is parsed around.
		if _, err := fmt.Fprintf(ack, "%d\n", i+1); err != nil {
			t.Fatal(err)
		}
		// A mid-history checkpoint lets kills land during snapshot
		// write + segment truncation too.
		if i == len(ops)/2 {
			if err := idx.Checkpoint(); err != nil {
				t.Fatalf("child checkpoint: %v", err)
			}
		}
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
}

// readAcked returns the number of writes the child acknowledged — the
// last complete line of the ack file (0 if the child never got there).
func readAcked(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for _, line := range strings.Split(string(data), "\n") {
		if n, err := strconv.Atoi(strings.TrimSpace(line)); err == nil && n > acked {
			acked = n
		}
	}
	return acked
}

// corpusOf collects the recovered logical corpus, failing on duplicate
// IDs across shards.
func corpusOf(t *testing.T, x *Index) map[ID]*Trajectory {
	t.Helper()
	got := map[ID]*Trajectory{}
	for _, ep := range x.s.Epochs() {
		for _, u := range ep.LogicalCorpus() {
			if _, dup := got[u.ID]; dup {
				t.Fatalf("recovered corpus has duplicate id %d", u.ID)
			}
			got[u.ID] = u
		}
	}
	return got
}

// sameCorpus compares two ID->trajectory maps point for point.
func sameCorpus(a, b map[ID]*Trajectory) bool {
	if len(a) != len(b) {
		return false
	}
	for id, u := range a {
		v, ok := b[id]
		if !ok || u.Len() != v.Len() {
			return false
		}
		for i, p := range u.Points {
			if v.Points[i] != p {
				return false
			}
		}
	}
	return true
}

// matchPrefix finds the unique history prefix whose corpus equals the
// recovered one (every insert introduces a fresh ID and IDs are never
// reused, so all prefix corpora are distinct), or -1.
func matchPrefix(base []*Trajectory, ops []crashOp, got map[ID]*Trajectory) int {
	sim := make(map[ID]*Trajectory, len(base))
	for _, u := range base {
		sim[u.ID] = u
	}
	if sameCorpus(sim, got) {
		return 0
	}
	for i, op := range ops {
		if op.insert != nil {
			sim[op.insert.ID] = op.insert
		} else {
			delete(sim, op.del)
		}
		if sameCorpus(sim, got) {
			return i + 1
		}
	}
	return -1
}

// freshBuild replays ops[:n] onto a from-scratch index — the reference
// the recovered index must answer identically to.
func freshBuild(t *testing.T, base []*Trajectory, ops []crashOp, n int) *Index {
	t.Helper()
	ref, err := crashBootstrap(base)()
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops[:n] {
		if op.insert != nil {
			if err := ref.Insert(op.insert); err != nil {
				t.Fatalf("ref insert %d: %v", i, err)
			}
		} else if _, err := ref.Delete(op.del); err != nil {
			t.Fatalf("ref delete %d: %v", i, err)
		}
	}
	return ref
}

// assertSameAnswers compares ServiceValues and TopK over the Binary
// scenario — integral, so equality is exact (byte-identical floats).
func assertSameAnswers(t *testing.T, got, want *Index, routes []*Facility) {
	t.Helper()
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	gv, err := got.ServiceValues(routes, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	wv, err := want.ServiceValues(routes, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wv {
		if gv[i] != wv[i] {
			t.Fatalf("route %d: recovered service value %v, fresh build %v", routes[i].ID, gv[i], wv[i])
		}
	}
	gt, err := got.TopK(routes, 5, q)
	if err != nil {
		t.Fatal(err)
	}
	wt, err := want.TopK(routes, 5, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(gt) != len(wt) {
		t.Fatalf("TopK lengths %d vs %d", len(gt), len(wt))
	}
	for i := range wt {
		if gt[i].Facility.ID != wt[i].Facility.ID || gt[i].Service != wt[i].Service {
			t.Fatalf("TopK[%d]: recovered (%d, %v), fresh build (%d, %v)",
				i, gt[i].Facility.ID, gt[i].Service, wt[i].Facility.ID, wt[i].Service)
		}
	}
}

// TestWALCrashRecovery is the centerpiece: SIGKILL a child mid-history
// at a random point, reopen its WAL directory, and require the
// recovered index to answer byte-identical to a fresh build of a prefix
// of the history containing every acknowledged write (sync policy
// always: no acked write is ever lost).
func TestWALCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	const seed = 31
	base, ops, routes := crashWorkload(seed)
	rng := rand.New(rand.NewSource(97))
	for round := 0; round < walStressN(4); round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			scratch := t.TempDir()
			walDir := filepath.Join(scratch, "wal")
			ackPath := filepath.Join(scratch, "acked")
			cmd := exec.Command(os.Args[0], "-test.run=^TestWALCrashChild$", "-test.count=1")
			cmd.Env = append(os.Environ(),
				walChildEnv+"=1",
				walDirEnv+"="+walDir,
				walSeedEnv+"="+strconv.FormatInt(seed, 10),
				walAckEnv+"="+ackPath,
			)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			// Kill once the child has acked a random target op — anywhere
			// from mid-bootstrap (target 0) to (occasionally) past the
			// end, where the child exits cleanly and the full history is
			// the prefix that must verify.
			target := rng.Intn(len(ops) + len(ops)/8)
			done := make(chan struct{})
			go func() { cmd.Wait(); close(done) }()
			deadline := time.Now().Add(60 * time.Second)
		poll:
			for readAcked(t, ackPath) < target {
				if time.Now().After(deadline) {
					t.Errorf("child never reached op %d", target)
					break
				}
				select {
				case <-done:
					break poll
				case <-time.After(time.Millisecond):
				}
			}
			cmd.Process.Kill()
			<-done

			acked := readAcked(t, ackPath)
			rec, err := OpenIndex(crashWALOptions(walDir), crashPolicy(), crashBootstrap(base))
			if err != nil {
				t.Fatalf("recover after kill near op %d (acked %d): %v", target, acked, err)
			}
			defer rec.Close()
			n := matchPrefix(base, ops, corpusOf(t, rec))
			if n < 0 {
				t.Fatalf("recovered corpus (len %d) matches no prefix of the history (acked %d)", rec.Len(), acked)
			}
			if n < acked {
				t.Fatalf("recovered prefix %d loses acknowledged writes (acked %d)", n, acked)
			}
			t.Logf("killed near op %d: acked %d, recovered prefix %d/%d", target, acked, n, len(ops))
			assertSameAnswers(t, rec, freshBuild(t, base, ops, n), routes)
		})
	}
}

// buildCrashedWALDir runs a prefix of the history in-process with
// sync=always and abandons the index without Close — the on-disk state
// of a crashed process — returning the applied op count.
func buildCrashedWALDir(t *testing.T, dir string, base []*Trajectory, ops []crashOp) int {
	t.Helper()
	idx, err := OpenIndex(crashWALOptions(dir), crashPolicy(), crashBootstrap(base))
	if err != nil {
		t.Fatal(err)
	}
	n := 160
	if n > len(ops) {
		n = len(ops)
	}
	for i, op := range ops[:n] {
		if op.insert != nil {
			if err := idx.Insert(op.insert); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
		} else if _, err := idx.Delete(op.del); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	// No Close: with SyncAlways every acked record is already flushed
	// and fsynced, exactly like a SIGKILL arriving now.
	return n
}

// TestWALCorruptionRecovery: truncate and bit-flip WAL segment files at
// sampled byte offsets. Every mutation must either fail recovery loudly
// or recover a valid prefix of the history; corrupted history may lose
// acked writes (the medium failed, and recovery says so by construction
// only when the damage is a legal torn tail) but must never panic or
// serve a corpus that is not a prefix.
func TestWALCorruptionRecovery(t *testing.T) {
	const seed = 53
	base, ops, routes := crashWorkload(seed)
	master := t.TempDir()
	buildCrashedWALDir(t, master, base, ops)

	segs, err := filepath.Glob(filepath.Join(master, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in master dir (err %v)", err)
	}
	files := map[string][]byte{}
	ents, err := os.ReadDir(master)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(master, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}

	lastSeg := filepath.Base(segs[len(segs)-1])
	firstSeg := filepath.Base(segs[0])
	recoveries := 0
	tryRecover := func(t *testing.T, mutate func(map[string][]byte)) {
		t.Helper()
		dir := t.TempDir()
		mut := map[string][]byte{}
		for name, data := range files {
			mut[name] = append([]byte(nil), data...)
		}
		mutate(mut)
		for name, data := range mut {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		rec, err := OpenIndex(crashWALOptions(dir), crashPolicy(), crashBootstrap(base))
		if err != nil {
			return // loud failure is a legal outcome for corrupted media
		}
		defer rec.Close()
		if n := matchPrefix(base, ops, corpusOf(t, rec)); n < 0 {
			t.Fatalf("recovered corpus matches no prefix of the history")
		}
		// The recovered index must also serve.
		if _, err := rec.ServiceValue(routes[0], Query{Scenario: Binary, Psi: DefaultPsi}); err != nil {
			t.Fatalf("recovered index cannot serve: %v", err)
		}
		recoveries++
	}

	lastData := files[lastSeg]
	step := len(lastData)/walStressN(24) + 1
	t.Run("truncate-tail", func(t *testing.T) {
		for cut := 0; cut < len(lastData); cut += step {
			tryRecover(t, func(m map[string][]byte) { m[lastSeg] = m[lastSeg][:cut] })
		}
	})
	t.Run("bitflip-tail", func(t *testing.T) {
		for off := 0; off < len(lastData); off += step {
			off := off
			tryRecover(t, func(m map[string][]byte) { m[lastSeg][off] ^= 0x10 })
		}
	})
	t.Run("bitflip-first", func(t *testing.T) {
		firstData := files[firstSeg]
		fstep := len(firstData)/walStressN(12) + 1
		for off := 0; off < len(firstData); off += fstep {
			off := off
			tryRecover(t, func(m map[string][]byte) { m[firstSeg][off] ^= 0x10 })
		}
	})
	t.Run("drop-segment", func(t *testing.T) {
		tryRecover(t, func(m map[string][]byte) { delete(m, firstSeg) })
	})
	if recoveries == 0 {
		t.Fatal("every mutation failed recovery — torn-tail tolerance never engaged")
	}
}
