// Persistence shows the operational side of the library, durability
// edition: open a live index with a write-ahead log, take acknowledged
// writes, crash without any shutdown, and reopen the same directory —
// every acknowledged write is still there, proven by comparing answers
// against an index built fresh from the same logical history. The
// final act compacts the log with a checkpoint, which is also what a
// running tqserve does on POST /v1/checkpoint.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	trajcover "github.com/trajcover/trajcover"
)

func main() {
	city := trajcover.BeijingCity()
	dir, err := os.MkdirTemp("", "trajcover-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Raw traces, simplified to ~50 m tolerance before indexing (what
	// one would do with real Geolife data).
	raw := trajcover.GPSTraces(city, 3000, 20, 80, 31)
	users, err := trajcover.Simplify(raw, 50)
	if err != nil {
		log.Fatal(err)
	}
	base, arrivals := users[:2500], users[2500:]

	walOpts := trajcover.WALOptions{
		Dir:  filepath.Join(dir, "wal"),
		Sync: trajcover.WALSyncAlways, // ack ⇒ fsynced
	}
	pol := trajcover.LivePolicy{}
	bootstrap := func() (*trajcover.Index, error) {
		return trajcover.NewIndex(base, trajcover.IndexOptions{
			Variant:     trajcover.FullTrajectory,
			Ordering:    trajcover.ZOrdering,
			Shards:      2,
			Partitioner: trajcover.HashPartitioner(),
			Policy:      pol,
		})
	}

	// --- process one: open with a WAL, write, then "crash" -----------
	//
	// The bootstrap closure runs on the first open only; afterwards the
	// directory itself is the source of truth.
	idx, err := trajcover.OpenIndex(walOpts, pol, bootstrap)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("opened WAL-backed index: %d trajectories, wal at %s\n", idx.Len(), walOpts.Dir)

	for _, u := range arrivals {
		if err := idx.Insert(u); err != nil { // returns only after the record is fsynced
			log.Fatal(err)
		}
	}
	if _, err := idx.Delete(base[0].ID); err != nil {
		log.Fatal(err)
	}
	if st, ok := idx.WALStats(); ok {
		fmt.Printf("acknowledged %d+1 writes: wal has %d records in %d segment(s), %d fsyncs\n",
			len(arrivals), st.Records, st.Segments, st.Fsyncs)
	}

	// Crash. No Close, no snapshot, no warning — the handles die with
	// the process. (In-process we simply abandon the value; the
	// TestWALCrashRecovery property test does this for real with
	// SIGKILL at random points mid-history.)
	idx = nil
	_ = idx

	// --- process two: reopen the same directory ----------------------
	recovered, err := trajcover.OpenIndex(walOpts, pol, bootstrap)
	if err != nil {
		log.Fatal(err)
	}
	defer recovered.Close()
	fmt.Printf("reopened after crash: %d trajectories recovered\n", recovered.Len())

	// Verify: an index built fresh from the same logical history must
	// answer identically.
	fresh, err := bootstrap()
	if err != nil {
		log.Fatal(err)
	}
	for _, u := range arrivals {
		if err := fresh.Insert(u); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := fresh.Delete(base[0].ID); err != nil {
		log.Fatal(err)
	}

	routes := trajcover.BusRoutes(city, 60, 32, 32)
	q := trajcover.Query{Scenario: trajcover.PointCount, Psi: trajcover.DefaultPsi}
	got, err := recovered.TopK(routes, 3, q)
	if err != nil {
		log.Fatal(err)
	}
	want, err := fresh.TopK(routes, 3, q)
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if got[i].Facility.ID != want[i].Facility.ID || got[i].Service != want[i].Service {
			log.Fatalf("recovered answer diverges at rank %d: (%d, %v) vs (%d, %v)",
				i+1, got[i].Facility.ID, got[i].Service, want[i].Facility.ID, want[i].Service)
		}
		fmt.Printf("  rank %d: route %-4d service %.0f (recovered == fresh)\n",
			i+1, got[i].Facility.ID, got[i].Service)
	}

	// Checkpoint: durable TQLIVE02 snapshot of the current state, then
	// the replayed segments are deleted — bounding the next restart's
	// replay to writes after this point.
	if err := recovered.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	if st, ok := recovered.WALStats(); ok {
		fmt.Printf("checkpointed: wal truncated to %d segment(s), %d bytes\n", st.Segments, st.Bytes)
	}
}
