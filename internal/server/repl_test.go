package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/replog"
)

// newReplEnv is newEnv with primary-side replication on.
func newReplEnv(t *testing.T, base []*trajcover.Trajectory, rl *replog.Log) *env {
	t.Helper()
	return newEnv(t, base, Config{
		Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second, ReplLog: rl,
	})
}

// TestServerChangesFeed drives writes through HTTP and asserts the
// /v1/changes feed replays them exactly: same order the index applied
// them, bit-exact coordinates, deletes only when they found something,
// and failed writes absent entirely.
func TestServerChangesFeed(t *testing.T) {
	users := testUsers(120, 211)
	rl := replog.New(1024)
	e := newReplEnv(t, users[:100], rl)

	// 10 inserts, one delete, one failed duplicate insert, one no-op
	// delete of an unknown ID.
	for _, u := range users[100:110] {
		if status, body, _ := e.post(PathInsert, insertBody(t, u, "")); status != http.StatusOK {
			t.Fatalf("insert: %d %s", status, body)
		}
	}
	if status, _, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: 5})); status != http.StatusOK {
		t.Fatal("delete failed")
	}
	if status, _, _ := e.post(PathInsert, insertBody(t, users[100], "")); status != http.StatusConflict {
		t.Fatal("duplicate insert not 409")
	}
	status, body, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: 999999}))
	if status != http.StatusOK {
		t.Fatalf("unknown delete: %d %s", status, body)
	}
	var dr DeleteResponse
	if err := json.Unmarshal(body, &dr); err != nil || dr.Found {
		t.Fatalf("unknown delete found=%v err=%v", dr.Found, err)
	}

	st, raw := e.get(PathChanges + "?after=0")
	if st != http.StatusOK {
		t.Fatalf("changes: %d %s", st, raw)
	}
	var cr ChangesResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.BootID != rl.BootID() || cr.Seq != 11 || len(cr.Entries) != 11 {
		t.Fatalf("changes boot=%q seq=%d entries=%d, want boot=%q seq=11 entries=11",
			cr.BootID, cr.Seq, len(cr.Entries), rl.BootID())
	}
	for i, ent := range cr.Entries[:10] {
		u := users[100+i]
		if ent.Seq != uint64(i+1) || ent.Op != replog.OpInsert || ent.ID != uint32(u.ID) {
			t.Fatalf("entry %d: %+v", i, ent)
		}
		if len(ent.Points) != len(u.Points) {
			t.Fatalf("entry %d: %d points, want %d", i, len(ent.Points), len(u.Points))
		}
		for j, p := range u.Points {
			if ent.Points[j] != [2]float64{p.X, p.Y} {
				t.Fatalf("entry %d point %d: %v != %v", i, j, ent.Points[j], p)
			}
		}
	}
	if del := cr.Entries[10]; del.Op != replog.OpDelete || del.ID != 5 || del.Points != nil {
		t.Fatalf("delete entry: %+v", del)
	}

	// Paged + positioned reads.
	st, raw = e.get(PathChanges + "?after=9&limit=5")
	if st != http.StatusOK {
		t.Fatalf("paged changes: %d", st)
	}
	cr = ChangesResponse{}
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Entries) != 2 || cr.Entries[0].Seq != 10 {
		t.Fatalf("paged read: %+v", cr.Entries)
	}

	// Snapshot carries the replication handoff headers, and the seq
	// stamped is <= the log head at capture time (here: equal).
	resp, err := e.client.Get(e.ts.URL + PathSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Repl-Boot") != rl.BootID() {
		t.Fatalf("snapshot X-Repl-Boot %q, want %q", resp.Header.Get("X-Repl-Boot"), rl.BootID())
	}
	if got := resp.Header.Get("X-Repl-Seq"); got != "11" {
		t.Fatalf("snapshot X-Repl-Seq %q, want 11", got)
	}

	// /statsz exposes the log.
	st, raw = e.get(PathStats)
	if st != http.StatusOK {
		t.Fatal("statsz failed")
	}
	var stats Stats
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Replication == nil || stats.Replication.Seq != 11 || stats.Replication.BootID != rl.BootID() {
		t.Fatalf("statsz replication section: %+v", stats.Replication)
	}
}

// TestServerChangesGoneAndErrors pins the re-bootstrap (410) and 4xx
// surface of /v1/changes.
func TestServerChangesGoneAndErrors(t *testing.T) {
	users := testUsers(60, 221)
	rl := replog.New(4) // tiny window so trims are easy to force
	e := newReplEnv(t, users[:40], rl)
	for _, u := range users[40:50] {
		if status, _, _ := e.post(PathInsert, insertBody(t, u, "")); status != http.StatusOK {
			t.Fatal("insert failed")
		}
	}

	// Position trimmed out of the window: 410 naming the snapshot path.
	st, body := e.get(PathChanges + "?after=1")
	if st != http.StatusGone || !strings.Contains(string(body), PathSnapshot) {
		t.Fatalf("trimmed read: %d %s, want 410 naming %s", st, body, PathSnapshot)
	}
	// Wrong boot pin: 410 too.
	st, body = e.get(PathChanges + "?after=10&boot=0000000000000000")
	if st != http.StatusGone || !strings.Contains(string(body), "re-bootstrap") {
		t.Fatalf("boot mismatch: %d %s", st, body)
	}
	// Matching boot pin inside the window: fine.
	if st, _ = e.get(PathChanges + "?after=9&boot=" + rl.BootID()); st != http.StatusOK {
		t.Fatalf("pinned read: %d", st)
	}
	// Bad numbers: 400.
	for _, q := range []string{"?after=-1", "?after=x", "?limit=x", "?wait_ms=x"} {
		if st, _ = e.get(PathChanges + q); st != http.StatusBadRequest {
			t.Fatalf("changes%s: %d, want 400", q, st)
		}
	}
	// POST: 405.
	if st, _, _ := e.post(PathChanges, nil); st != http.StatusMethodNotAllowed {
		t.Fatalf("POST changes: %d", st)
	}
}

// TestServerChangesDisabled: without a ReplLog the feed does not exist.
func TestServerChangesDisabled(t *testing.T) {
	e := newEnv(t, testUsers(30, 231), Config{Workers: 1, QueueDepth: 4})
	if st, body := e.get(PathChanges + "?after=0"); st != http.StatusNotFound {
		t.Fatalf("changes without log: %d %s, want 404", st, body)
	}
}

// TestServerChangesLongPoll: a caught-up poll with wait_ms blocks until
// the next acknowledged write, then delivers it; an empty window with
// wait_ms=0 returns immediately.
func TestServerChangesLongPoll(t *testing.T) {
	users := testUsers(50, 241)
	rl := replog.New(64)
	e := newReplEnv(t, users[:40], rl)

	if st, raw := e.get(PathChanges + "?after=0&wait_ms=0"); st != http.StatusOK {
		t.Fatalf("empty immediate poll: %d", st)
	} else {
		var cr ChangesResponse
		if err := json.Unmarshal(raw, &cr); err != nil || len(cr.Entries) != 0 {
			t.Fatalf("empty immediate poll entries=%d err=%v", len(cr.Entries), err)
		}
	}

	type pollResult struct {
		st      int
		cr      ChangesResponse
		err     error
		elapsed time.Duration
	}
	res := make(chan pollResult, 1)
	go func() {
		start := time.Now()
		resp, err := e.client.Get(e.ts.URL + PathChanges + "?after=0&wait_ms=20000")
		if err != nil {
			res <- pollResult{err: err}
			return
		}
		defer resp.Body.Close()
		var cr ChangesResponse
		err = json.NewDecoder(resp.Body).Decode(&cr)
		res <- pollResult{st: resp.StatusCode, cr: cr, err: err, elapsed: time.Since(start)}
	}()

	// Give the poller time to park, then write.
	time.Sleep(100 * time.Millisecond)
	if status, _, _ := e.post(PathInsert, insertBody(t, users[40], "")); status != http.StatusOK {
		t.Fatal("insert failed")
	}
	select {
	case r := <-res:
		if r.err != nil || r.st != http.StatusOK {
			t.Fatalf("long poll: %d err=%v", r.st, r.err)
		}
		if len(r.cr.Entries) != 1 || r.cr.Entries[0].ID != uint32(users[40].ID) {
			t.Fatalf("long poll entries: %+v", r.cr.Entries)
		}
		if r.elapsed > 15*time.Second {
			t.Fatalf("long poll woke after %v, not on the append", r.elapsed)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("long poll never answered after the append")
	}
}

// TestServerReplicationOrderMatchesApply hammers concurrent writes and
// asserts the changes feed, replayed onto a fresh index, reproduces the
// primary's corpus exactly — the log-order == apply-order invariant the
// replmu serialization exists for. Run under -race.
func TestServerReplicationOrderMatchesApply(t *testing.T) {
	users := testUsers(400, 261)
	rl := replog.New(1 << 12)
	e := newReplEnv(t, users[:200], rl)

	// 8 writers race inserts and deletes over overlapping IDs.
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 25; i++ {
				u := users[200+w*25+i]
				if status, body, _ := e.post(PathInsert, insertBody(t, u, "")); status != http.StatusOK {
					errs <- fmt.Errorf("insert %d: %d %s", u.ID, status, body)
					return
				}
				if i%5 == 4 {
					// Deleting a racing target: 200 whether found or not.
					if status, _, _ := e.post(PathDelete, mustBody(t, DeleteRequest{ID: uint32(200 + ((w*25 + i) % 100))})); status != http.StatusOK {
						errs <- fmt.Errorf("delete: status != 200")
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	st, raw := e.get(PathChanges + "?after=0")
	if st != http.StatusOK {
		t.Fatalf("changes: %d", st)
	}
	var cr ChangesResponse
	if err := json.Unmarshal(raw, &cr); err != nil {
		t.Fatal(err)
	}
	replayed, err := trajcover.NewLiveShardedIndex(users[:200], liveOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range cr.Entries {
		switch ent.Op {
		case replog.OpInsert:
			pts := make([]trajcover.Point, len(ent.Points))
			for i, p := range ent.Points {
				pts[i] = trajcover.Pt(p[0], p[1])
			}
			u, err := trajcover.NewTrajectory(trajcover.ID(ent.ID), pts)
			if err != nil {
				t.Fatal(err)
			}
			if err := replayed.Insert(u); err != nil {
				t.Fatalf("replay insert %d (seq %d): %v", ent.ID, ent.Seq, err)
			}
		case replog.OpDelete:
			if _, err := replayed.Delete(trajcover.ID(ent.ID)); err != nil {
				t.Fatalf("replay delete %d (seq %d): %v", ent.ID, ent.Seq, err)
			}
		}
	}
	if replayed.Len() != e.srv.Index().Len() {
		t.Fatalf("replayed len %d, primary %d", replayed.Len(), e.srv.Index().Len())
	}
	facs := testFacilities(8, 6, 262)
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: 40}
	got, err := replayed.ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := e.srv.Index().ServiceValues(facs, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("facility %d: replayed %v, primary %v — feed order diverged from apply order", facs[i].ID, got[i], want[i])
		}
	}
}
