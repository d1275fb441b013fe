package trajcover

// Two-tenant crash recovery: a child process interleaves scripted write
// histories into two tenants of one TenantRegistry and is SIGKILLed at
// a random point; the parent reopens the registry root and requires
// EACH tenant to recover — independently — to a prefix of its own
// history containing every write the child acknowledged for it,
// answering byte-identical to a fresh build of that prefix. A second,
// deterministic arm corrupts one tenant's WAL tail and requires the
// other tenant's recovery to be completely unaffected: per-tenant WAL
// directories mean one tenant's torn tail can never block another's
// boot.

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"
)

const (
	tenantCrashChildEnv = "TRAJCOVER_TENANT_CRASH_CHILD"
	tenantCrashRootEnv  = "TRAJCOVER_TENANT_CRASH_ROOT"
	tenantCrashSeedEnv  = "TRAJCOVER_TENANT_CRASH_SEED"
	tenantCrashAckEnv   = "TRAJCOVER_TENANT_CRASH_ACK"
)

// tenantCrashIDs are the two victims. Their histories come from
// different seeds, so a cross-tenant WAL mixup cannot match any prefix.
var tenantCrashIDs = [2]string{"red", "blue"}

// tenantCrashWorkload derives tenant i's bootstrap corpus, write
// history, and probe routes — smaller than crashWorkload since two of
// them run interleaved in one child.
func tenantCrashWorkload(seed int64, i int) (base []*Trajectory, ops []crashOp, routes []*Facility) {
	city := NewYorkCity()
	tseed := seed + int64(i)*1000
	users := TaxiTrips(city, 400, tseed)
	routes = BusRoutes(city, 8, 10, tseed+1)
	base = users[:150]
	live := append([]*Trajectory(nil), base...)
	rng := rand.New(rand.NewSource(tseed + 2))
	for _, u := range users[150:] {
		if len(live) > 0 && rng.Float64() < 0.3 {
			j := rng.Intn(len(live))
			ops = append(ops, crashOp{del: live[j].ID})
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		ops = append(ops, crashOp{insert: u})
		live = append(live, u)
	}
	return base, ops, routes
}

// tenantCrashRegistryOptions builds the registry both the child and the
// recovering parent use: per-tenant WAL dirs under root, sync=always
// (no acked write may be lost), small segments, and NewTenant seeding
// each tenant's bootstrap corpus from the shared seed.
func tenantCrashRegistryOptions(root string, seed int64) TenantRegistryOptions {
	return TenantRegistryOptions{
		Root: root,
		WAL:  WALOptions{Sync: WALSyncAlways, SegmentBytes: 1 << 15},
		Index: IndexOptions{
			Ordering:    ZOrdering,
			Policy:      crashPolicy(),
			Shards:      2,
			Partitioner: HashPartitioner(),
		},
		NewTenant: func(id string) ([]*Trajectory, error) {
			for i, tid := range tenantCrashIDs {
				if id == tid {
					base, _, _ := tenantCrashWorkload(seed, i)
					return base, nil
				}
			}
			return nil, fmt.Errorf("unexpected tenant %q", id)
		},
	}
}

// TestTenantWALCrashChild is the victim: it creates both tenants in one
// registry and interleaves their histories — red, blue, red, blue — so
// a SIGKILL lands mid-append for one tenant while the other has a clean
// tail, acking each tenant's progress to its own file. Skipped unless
// spawned by TestTenantWALCrashRecovery.
func TestTenantWALCrashChild(t *testing.T) {
	if os.Getenv(tenantCrashChildEnv) == "" {
		t.Skip("helper process for TestTenantWALCrashRecovery")
	}
	seed, err := strconv.ParseInt(os.Getenv(tenantCrashSeedEnv), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := OpenTenantRegistry(tenantCrashRegistryOptions(os.Getenv(tenantCrashRootEnv), seed))
	if err != nil {
		t.Fatalf("child open registry: %v", err)
	}
	ackPrefix := os.Getenv(tenantCrashAckEnv)

	var idx [2]*Index
	var ops [2][]crashOp
	var ack [2]*os.File
	maxOps := 0
	for i, id := range tenantCrashIDs {
		x, release, err := reg.Acquire(id, true)
		if err != nil {
			t.Fatalf("child create %s: %v", id, err)
		}
		defer release()
		idx[i] = x
		_, ops[i], _ = tenantCrashWorkload(seed, i)
		if len(ops[i]) > maxOps {
			maxOps = len(ops[i])
		}
		if ack[i], err = os.Create(ackPrefix + "-" + id); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < maxOps; step++ {
		for i, id := range tenantCrashIDs {
			if step >= len(ops[i]) {
				continue
			}
			op := ops[i][step]
			if op.insert != nil {
				if err := idx[i].Insert(op.insert); err != nil {
					t.Fatalf("child %s insert %d: %v", id, step, err)
				}
			} else if _, err := idx[i].Delete(op.del); err != nil {
				t.Fatalf("child %s delete %d: %v", id, step, err)
			}
			if _, err := fmt.Fprintf(ack[i], "%d\n", step+1); err != nil {
				t.Fatal(err)
			}
			// Checkpoint only red mid-history: kills can land during
			// red's snapshot write + truncation while blue is mid-append
			// with a long un-checkpointed WAL — maximally asymmetric
			// recovery work.
			if i == 0 && step == len(ops[i])/2 {
				if err := idx[i].Checkpoint(); err != nil {
					t.Fatalf("child checkpoint %s: %v", id, err)
				}
			}
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantWALCrashRecovery SIGKILLs the two-tenant child at a random
// point and requires both tenants to recover independently: each to a
// prefix of its own history covering its acked writes, byte-identical
// answers to a fresh build.
func TestTenantWALCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	const seed = 67
	var ops [2][]crashOp
	var routes [2][]*Facility
	var bases [2][]*Trajectory
	total := 0
	for i := range tenantCrashIDs {
		bases[i], ops[i], routes[i] = tenantCrashWorkload(seed, i)
		total += len(ops[i])
	}
	rng := rand.New(rand.NewSource(71))
	for round := 0; round < walStressN(2); round++ {
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			scratch := t.TempDir()
			root := filepath.Join(scratch, "tenants")
			ackPrefix := filepath.Join(scratch, "acked")
			cmd := exec.Command(os.Args[0], "-test.run=^TestTenantWALCrashChild$", "-test.count=1")
			cmd.Env = append(os.Environ(),
				tenantCrashChildEnv+"=1",
				tenantCrashRootEnv+"="+root,
				tenantCrashSeedEnv+"="+strconv.FormatInt(seed, 10),
				tenantCrashAckEnv+"="+ackPrefix,
			)
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			ackedNow := func() int {
				sum := 0
				for _, id := range tenantCrashIDs {
					sum += readAcked(t, ackPrefix+"-"+id)
				}
				return sum
			}
			target := rng.Intn(total + total/8)
			done := make(chan struct{})
			go func() { cmd.Wait(); close(done) }()
			deadline := time.Now().Add(60 * time.Second)
		poll:
			for ackedNow() < target {
				if time.Now().After(deadline) {
					t.Errorf("child never reached %d total ops", target)
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

			// Recover the whole registry; each tenant must come back from
			// its own directory, by itself.
			reg, err := OpenTenantRegistry(tenantCrashRegistryOptions(root, seed))
			if err != nil {
				t.Fatalf("recover registry: %v", err)
			}
			defer reg.Close()
			for i, id := range tenantCrashIDs {
				acked := readAcked(t, ackPrefix+"-"+id)
				if acked == 0 && !dirExists(filepath.Join(root, id)) {
					// Killed before this tenant even existed; nothing to
					// recover and nothing was promised.
					continue
				}
				rec, release, err := reg.Acquire(id, false)
				if err != nil {
					t.Fatalf("tenant %s: recover (acked %d): %v", id, acked, err)
				}
				n := matchPrefix(bases[i], ops[i], corpusOf(t, rec))
				if n < 0 {
					t.Fatalf("tenant %s: recovered corpus matches no prefix of its history (acked %d)", id, acked)
				}
				if n < acked {
					t.Fatalf("tenant %s: recovered prefix %d loses acknowledged writes (acked %d)", id, n, acked)
				}
				t.Logf("tenant %s: acked %d, recovered prefix %d/%d", id, acked, n, len(ops[i]))
				assertSameAnswers(t, rec, freshBuild(t, bases[i], ops[i], n), routes[i])
				release()
			}
		})
	}
}

// TestTenantWALTornTailIndependence is the deterministic half of the
// independence story: with both tenants' crashed WAL state on disk,
// mangle ONE tenant's newest segment. The other tenant must recover its
// complete history exactly as if nothing happened — a corrupt
// co-tenant can fail its own boot, never a neighbour's.
func TestTenantWALTornTailIndependence(t *testing.T) {
	const seed = 73
	root := t.TempDir()
	var ops [2][]crashOp
	var routes [2][]*Facility
	var bases [2][]*Trajectory
	applied := [2]int{}

	reg, err := OpenTenantRegistry(tenantCrashRegistryOptions(root, seed))
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range tenantCrashIDs {
		bases[i], ops[i], routes[i] = tenantCrashWorkload(seed, i)
		idx, release, err := reg.Acquire(id, true)
		if err != nil {
			t.Fatal(err)
		}
		n := 120
		if n > len(ops[i]) {
			n = len(ops[i])
		}
		for j, op := range ops[i][:n] {
			if op.insert != nil {
				if err := idx.Insert(op.insert); err != nil {
					t.Fatalf("%s insert %d: %v", id, j, err)
				}
			} else if _, err := idx.Delete(op.del); err != nil {
				t.Fatalf("%s delete %d: %v", id, j, err)
			}
		}
		applied[i] = n
		release()
	}
	// No reg.Close(): with sync=always everything acked is on disk, and
	// abandoning the open registry is exactly the crashed-process state.

	// Mangle red's newest segment: truncate to a torn tail AND flip a
	// byte mid-file, damage a same-process recovery could never see.
	segs, err := filepath.Glob(filepath.Join(root, tenantCrashIDs[0], "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no red segments (err %v)", err)
	}
	last := segs[len(segs)-1]
	data, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 3 {
		data = data[:len(data)-3]
	}
	if len(data) > 40 {
		data[len(data)/2] ^= 0x10
	}
	if err := os.WriteFile(last, data, 0o644); err != nil {
		t.Fatal(err)
	}

	reg2, err := OpenTenantRegistry(tenantCrashRegistryOptions(root, seed))
	if err != nil {
		t.Fatalf("registry open must be lazy — a corrupt tenant cannot fail it: %v", err)
	}
	defer reg2.Close()

	// Blue first: full recovery, full history, exact answers — red's
	// corruption is invisible from blue's directory.
	blue, releaseBlue, err := reg2.Acquire(tenantCrashIDs[1], false)
	if err != nil {
		t.Fatalf("blue recovery blocked by red's torn tail: %v", err)
	}
	if n := matchPrefix(bases[1], ops[1], corpusOf(t, blue)); n != applied[1] {
		t.Fatalf("blue recovered prefix %d, want its full %d ops", n, applied[1])
	}
	assertSameAnswers(t, blue, freshBuild(t, bases[1], ops[1], applied[1]), routes[1])
	releaseBlue()

	// Red: a loud failure or a valid prefix — anything but a panic or a
	// non-prefix corpus.
	red, releaseRed, err := reg2.Acquire(tenantCrashIDs[0], false)
	if err == nil {
		if n := matchPrefix(bases[0], ops[0], corpusOf(t, red)); n < 0 {
			t.Fatalf("red recovered a corpus that is no prefix of its history")
		}
		releaseRed()
	}
}
