package main

// The distributed crash/partition property harness — the e2e proof of
// the serving tier. The parent test spawns REAL tqserve processes (two
// shard groups, each a WAL-backed primary plus a replica, behind one
// scatter-gather frontend), drives a deterministic write history
// through the frontend while SIGKILLing and SIGSTOPping members at
// random acked-op counts, and holds the tier to the paper-grade
// contract: every answer the frontend returns is EXACTLY the answer of
// some acknowledged prefix of the history — per shard group, summed —
// and after recovery the tier converges back to byte-identity with a
// fresh single-process build of the full history. Failures may surface
// as refusals (503/504, retried); they must never surface as wrong
// values.
//
// The oracle exploits the scatter shape: /v1/servicevalues reads one
// atomic epoch per group per request, so an observed value vector W is
// valid iff W = V0[n0] + V1[n1] for some per-group acked-prefix
// vectors Vg[ng] — all of which the parent precomputes by replaying
// the same ops on in-process indexes. The Binary scenario keeps every
// value integral, so sums compare exactly.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/dist"
	"github.com/trajcover/trajcover/internal/server"
)

const (
	distChildEnv = "TQSERVE_DIST_CHILD"
	distArgsEnv  = "TQSERVE_DIST_ARGS"
	distReadyEnv = "TQSERVE_DIST_READY"
)

// TestDistServeChild is the child-process entry point: one tqserve
// process wired exactly like main(), driven by env vars so the parent
// can SIGKILL it at any instant.
func TestDistServeChild(t *testing.T) {
	if os.Getenv(distChildEnv) == "" {
		t.Skip("spawned by TestDistCrashPartition")
	}
	sig := make(chan os.Signal, 4)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT, syscall.SIGHUP)
	args := strings.Split(os.Getenv(distArgsEnv), "\x1f")
	ready := func(addr string) {
		if err := os.WriteFile(os.Getenv(distReadyEnv), []byte(addr), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := run(args, os.Stdout, sig, ready); err != nil {
		t.Fatalf("child run: %v", err)
	}
}

// distStressN scales the write history under TRAJCOVER_STRESS (the CI
// dist-e2e job sets it).
func distStressN(n int) int {
	if os.Getenv("TRAJCOVER_STRESS") != "" {
		return n * 2
	}
	return n
}

// distOp is one scripted write (insert when insert != nil, else delete).
type distOp struct {
	insert *trajcover.Trajectory
	del    trajcover.ID
}

// distWorkload deterministically derives the bootstrap corpus, the
// write history, and the probe routes from seed.
func distWorkload(seed int64, extra int) (base []*trajcover.Trajectory, ops []distOp, routes []*trajcover.Facility) {
	city := trajcover.NewYorkCity()
	users := trajcover.TaxiTrips(city, 240+extra, seed)
	routes = trajcover.BusRoutes(city, 8, 8, seed+1)
	base = users[:240]
	live := append([]*trajcover.Trajectory(nil), base...)
	rng := rand.New(rand.NewSource(seed + 2))
	for _, u := range users[240:] {
		if len(live) > 0 && rng.Float64() < 0.3 {
			i := rng.Intn(len(live))
			ops = append(ops, distOp{del: live[i].ID})
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		ops = append(ops, distOp{insert: u})
		live = append(live, u)
	}
	return base, ops, routes
}

func distIndexOpts() trajcover.LiveShardOptions {
	return trajcover.LiveShardOptions{
		Shards:      2,
		Partitioner: trajcover.HashPartitioner(),
		Index:       trajcover.IndexOptions{Ordering: trajcover.ZOrdering},
		Policy:      trajcover.LivePolicy{MaxDelta: 64}, // frequent rebuilds under fire
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// distChild is one managed tqserve process, restartable on the same
// fixed port (so its peers' -replica-of / -backends URLs stay valid).
type distChild struct {
	t         *testing.T
	name      string
	args      []string
	readyFile string
	logFile   string
	cmd       *exec.Cmd
	exited    chan error
}

func newDistChild(t *testing.T, scratch, name string, args []string) *distChild {
	return &distChild{
		t: t, name: name, args: args,
		readyFile: filepath.Join(scratch, name+".ready"),
		logFile:   filepath.Join(scratch, name+".log"),
	}
}

func (c *distChild) start() {
	c.t.Helper()
	os.Remove(c.readyFile)
	cmd := exec.Command(os.Args[0], "-test.run=^TestDistServeChild$", "-test.count=1")
	cmd.Env = append(os.Environ(),
		distChildEnv+"=1",
		distArgsEnv+"="+strings.Join(c.args, "\x1f"),
		distReadyEnv+"="+c.readyFile,
	)
	logf, err := os.OpenFile(c.logFile, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		c.t.Fatal(err)
	}
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		c.t.Fatalf("start %s: %v", c.name, err)
	}
	c.cmd = cmd
	c.exited = make(chan error, 1)
	exited := c.exited
	go func() { err := cmd.Wait(); logf.Close(); exited <- err }()
}

func (c *distChild) awaitReady() {
	c.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if data, err := os.ReadFile(c.readyFile); err == nil && len(data) > 0 {
			return
		}
		select {
		case err := <-c.exited:
			log, _ := os.ReadFile(c.logFile)
			c.t.Fatalf("%s exited before ready (%v):\n%s", c.name, err, log)
		default:
		}
		if time.Now().After(deadline) {
			log, _ := os.ReadFile(c.logFile)
			c.t.Fatalf("%s never became ready:\n%s", c.name, log)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// sigkill is the crash: no drain, no flush beyond what the WAL already
// synced per acked write.
func (c *distChild) sigkill() {
	c.t.Helper()
	if err := c.cmd.Process.Kill(); err != nil {
		c.t.Fatalf("kill %s: %v", c.name, err)
	}
	<-c.exited
}

func (c *distChild) signal(sig syscall.Signal) {
	c.t.Helper()
	if err := c.cmd.Process.Signal(sig); err != nil {
		c.t.Fatalf("signal %s %v: %v", c.name, sig, err)
	}
}

// terminate delivers SIGTERM and requires a clean (exit 0) drain.
func (c *distChild) terminate() {
	c.t.Helper()
	c.signal(syscall.SIGTERM)
	select {
	case err := <-c.exited:
		if err != nil {
			log, _ := os.ReadFile(c.logFile)
			c.t.Fatalf("%s did not drain cleanly: %v\n%s", c.name, err, log)
		}
	case <-time.After(60 * time.Second):
		c.t.Fatalf("%s never exited after SIGTERM", c.name)
	}
}

func (c *distChild) kill9IfAlive() {
	if c.cmd == nil {
		return
	}
	c.cmd.Process.Signal(syscall.SIGCONT) // a paused child must die too
	c.cmd.Process.Kill()
}

func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port
}

// distHarness is the parent-side oracle and driver.
type distHarness struct {
	t           *testing.T
	feURL       string
	writeClient *http.Client
	readClient  *http.Client
	oracle      [2]*trajcover.LiveShardedIndex
	vecs        [2][][]float64 // vecs[g][n]: group g's values after n acked ops
	routes      []*trajcover.Facility
	svBody      []byte
	topkBody    []byte
	live        map[trajcover.ID]*trajcover.Trajectory
}

func (h *distHarness) groupValues(g int) []float64 {
	h.t.Helper()
	q := trajcover.Query{Scenario: trajcover.Binary, Psi: trajcover.DefaultPsi}
	v, err := h.oracle[g].ServiceValues(h.routes, q, 1)
	if err != nil {
		h.t.Fatal(err)
	}
	return v
}

func (h *distHarness) post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// applyOp pushes one write through the frontend until acknowledged,
// then advances the oracle. Transient refusals (transport errors, 429,
// 5xx — a member down, paused, or restarting) retry; a 409 on an
// insert is the kill-window replay of our own earlier attempt (the op
// landed, the ack was lost) and counts as acked; any other 4xx is a
// contract violation.
func (h *distHarness) applyOp(op distOp) {
	h.t.Helper()
	var body []byte
	if op.insert != nil {
		pts := make([][2]float64, len(op.insert.Points))
		for j, p := range op.insert.Points {
			pts[j] = [2]float64{p.X, p.Y}
		}
		body = mustJSON(h.t, server.InsertRequest{ID: uint32(op.insert.ID), Points: pts})
	} else {
		body = mustJSON(h.t, server.DeleteRequest{ID: uint32(op.del)})
	}
	path := server.PathInsert
	if op.insert == nil {
		path = server.PathDelete
	}
	deadline := time.Now().Add(90 * time.Second)
	for {
		st, resp, err := h.post(h.writeClient, h.feURL+path, body)
		if err == nil && st == http.StatusOK {
			break
		}
		if err == nil && op.insert != nil && st == http.StatusConflict {
			break // our own retried write, already applied
		}
		if err == nil && st >= 400 && st < 500 && st != http.StatusConflict && st != http.StatusTooManyRequests {
			h.t.Fatalf("write %s rejected permanently: %d %s", path, st, resp)
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("write %s never acknowledged (last: %d %s, err %v)", path, st, resp, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	var g int
	if op.insert != nil {
		g = dist.RouteID(uint32(op.insert.ID), 2)
		if err := h.oracle[g].Insert(op.insert); err != nil {
			h.t.Fatalf("oracle insert: %v", err)
		}
		h.live[op.insert.ID] = op.insert
	} else {
		g = dist.RouteID(uint32(op.del), 2)
		if _, err := h.oracle[g].Delete(op.del); err != nil {
			h.t.Fatalf("oracle delete: %v", err)
		}
		delete(h.live, op.del)
	}
	h.vecs[g] = append(h.vecs[g], h.groupValues(g))
}

// validCombo reports whether w is the sum of SOME acked prefix per
// group — the only answers the tier is ever allowed to give.
func (h *distHarness) validCombo(w []float64) (int, int, bool) {
	for n0 := range h.vecs[0] {
		for n1 := range h.vecs[1] {
			match := true
			for i := range w {
				if h.vecs[0][n0][i]+h.vecs[1][n1][i] != w[i] {
					match = false
					break
				}
			}
			if match {
				return n0, n1, true
			}
		}
	}
	return 0, 0, false
}

// probe reads /v1/servicevalues through the frontend. A non-200 is a
// permitted refusal when optional (mid-fault); a 200 must be a valid
// acked-prefix combination, never partial, every time.
func (h *distHarness) probe(optional bool) bool {
	h.t.Helper()
	st, body, err := h.post(h.readClient, h.feURL+server.PathServiceValues, h.svBody)
	if err != nil || st != http.StatusOK {
		if !optional {
			h.t.Fatalf("probe refused: %d %s (err %v)", st, body, err)
		}
		return false
	}
	if strings.Contains(string(body), `"partial":true`) {
		h.t.Fatalf("default-mode read answered partial: %s", body)
	}
	var vr server.ValuesResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		h.t.Fatalf("probe body: %v (%s)", err, body)
	}
	if _, _, ok := h.validCombo(vr.Values); !ok {
		h.t.Fatalf("frontend answered a value vector matching NO acked prefix combination:\n%v\n(acked %d/%d ops per group)",
			vr.Values, len(h.vecs[0])-1, len(h.vecs[1])-1)
	}
	return true
}

// probeEventually demands at least one successful (and, as always,
// valid) read within n attempts — degraded, not down.
func (h *distHarness) probeEventually(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		if h.probe(true) {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	h.t.Fatalf("no successful read in %d attempts", n)
}

func waitHTTPOK(t *testing.T, client *http.Client, url, wantSubstr, what string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(url)
		if err == nil {
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && strings.Contains(string(body), wantSubstr) {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %s never answered 200 with %q", what, url, wantSubstr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDistCrashPartition is the tier's property test. See the package
// comment at the top of this file for the oracle.
func TestDistCrashPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash harness")
	}
	base, ops, routes := distWorkload(7, distStressN(100))
	scratch := t.TempDir()

	// Partition the bootstrap corpus exactly as the frontend routes
	// writes, seed each group's primary with a snapshot file, and keep
	// identically built in-process copies as the oracle.
	var parts [2][]*trajcover.Trajectory
	for _, u := range base {
		g := dist.RouteID(uint32(u.ID), 2)
		parts[g] = append(parts[g], u)
	}
	h := &distHarness{
		t:           t,
		writeClient: &http.Client{Timeout: 5 * time.Second},
		readClient:  &http.Client{Timeout: 20 * time.Second},
		routes:      routes,
		live:        map[trajcover.ID]*trajcover.Trajectory{},
	}
	for _, u := range base {
		h.live[u.ID] = u
	}
	seedPath := [2]string{}
	for g := 0; g < 2; g++ {
		idx, err := trajcover.NewLiveShardedIndex(parts[g], distIndexOpts())
		if err != nil {
			t.Fatal(err)
		}
		seedPath[g] = filepath.Join(scratch, fmt.Sprintf("seed%d.tqlive", g))
		f, err := os.Create(seedPath[g])
		if err != nil {
			t.Fatal(err)
		}
		if err := idx.WriteSnapshot(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		h.oracle[g] = idx
		h.vecs[g] = [][]float64{h.groupValues(g)}
	}
	fjs := server.FacilitiesJSON(routes)
	h.svBody = mustJSON(t, server.QueryRequest{Facilities: fjs, Psi: trajcover.DefaultPsi})
	h.topkBody = mustJSON(t, server.QueryRequest{Facilities: fjs, K: 5, Psi: trajcover.DefaultPsi})

	// Fixed ports so restarted members come back at the address their
	// peers were configured with.
	var pPort, rPort [2]int
	for g := 0; g < 2; g++ {
		pPort[g], rPort[g] = freePort(t), freePort(t)
	}
	fePort := freePort(t)
	pURL := func(g int) string { return fmt.Sprintf("http://127.0.0.1:%d", pPort[g]) }
	rURL := func(g int) string { return fmt.Sprintf("http://127.0.0.1:%d", rPort[g]) }

	var prim, repl [2]*distChild
	for g := 0; g < 2; g++ {
		prim[g] = newDistChild(t, scratch, fmt.Sprintf("primary%d", g), []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", pPort[g]),
			"-snapshot", seedPath[g],
			"-wal-dir", filepath.Join(scratch, fmt.Sprintf("wal%d", g)),
			"-wal-sync", "always", "-maxdelta", "64",
			"-workers", "2", "-queue", "64", "-timeout", "10s",
		})
		repl[g] = newDistChild(t, scratch, fmt.Sprintf("replica%d", g), []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", rPort[g]),
			"-replica-of", pURL(g), "-repl-poll", "100ms",
			"-workers", "2", "-queue", "64", "-timeout", "10s",
		})
	}
	fe := newDistChild(t, scratch, "frontend", []string{
		"-addr", fmt.Sprintf("127.0.0.1:%d", fePort),
		"-frontend", "-backends",
		fmt.Sprintf("%s|%s,%s|%s", pURL(0), rURL(0), pURL(1), rURL(1)),
		"-timeout", "15s",
	})
	all := []*distChild{prim[0], prim[1], repl[0], repl[1], fe}
	t.Cleanup(func() {
		for _, c := range all {
			c.kill9IfAlive()
		}
	})
	for _, c := range all {
		c.start()
	}
	for _, c := range all {
		c.awaitReady()
	}
	h.feURL = fmt.Sprintf("http://127.0.0.1:%d", fePort)
	for g := 0; g < 2; g++ {
		waitHTTPOK(t, h.readClient, pURL(g)+server.PathHealth, `"ok"`, "primary health")
		waitHTTPOK(t, h.readClient, rURL(g)+dist.PathReplStatus, `"ready":true`, "replica sync")
	}
	waitHTTPOK(t, h.readClient, h.feURL+server.PathHealth, `"ok"`, "frontend health")
	h.probe(false)

	// The fault schedule: random acked-op counts, deterministic across
	// runs of the same seed.
	rng := rand.New(rand.NewSource(97))
	killRepAt := 2 + rng.Intn(len(ops)/4)
	restartRepAt := killRepAt + 1 + rng.Intn(len(ops)/8)
	pauseAt := restartRepAt + 2 + rng.Intn(len(ops)/4)
	killPrimAt := pauseAt + 2 + rng.Intn(len(ops)/4)
	t.Logf("%d ops; kill replica0 @%d, restart @%d, pause primary1 @%d, kill primary0 @%d",
		len(ops), killRepAt, restartRepAt, pauseAt, killPrimAt)

	for i, op := range ops {
		switch i {
		case killRepAt:
			repl[0].sigkill()
		case restartRepAt:
			repl[0].start() // re-bootstraps from primary0 by itself
		case pauseAt:
			// Partition: primary1 freezes mid-everything. Reads must fail
			// over to replica1 inside the same request; writes owned by
			// group 1 stall on retries until the thaw below fires.
			prim[1].signal(syscall.SIGSTOP)
			time.AfterFunc(3*time.Second, func() { prim[1].signal(syscall.SIGCONT) })
			h.probeEventually(5)
		case killPrimAt:
			// Crash the WAL-backed primary outright. Reads keep flowing
			// from replica0's last applied state (a valid acked prefix);
			// writes owned by group 0 retry until the restarted process
			// has recovered checkpoint + WAL tail.
			prim[0].sigkill()
			h.probeEventually(5)
			prim[0].start()
		}
		h.applyOp(op)
		if i%4 == 0 {
			h.probe(true)
		}
	}

	// Convergence: every member individually reaches the full acked
	// history, then the frontend is byte-identical to a fresh
	// single-process build of that history.
	wantVals := [2][]float64{h.vecs[0][len(h.vecs[0])-1], h.vecs[1][len(h.vecs[1])-1]}
	for g := 0; g < 2; g++ {
		for _, member := range []string{pURL(g), rURL(g)} {
			deadline := time.Now().Add(60 * time.Second)
			for {
				st, body, err := h.post(h.readClient, member+server.PathServiceValues, h.svBody)
				var vr server.ValuesResponse
				if err == nil && st == http.StatusOK && json.Unmarshal(body, &vr) == nil {
					caught := len(vr.Values) == len(wantVals[g])
					for i := range vr.Values {
						caught = caught && vr.Values[i] == wantVals[g][i]
					}
					if caught {
						break
					}
				}
				if time.Now().After(deadline) {
					t.Fatalf("group %d member %s never converged (last: %d %s, err %v)", g, member, st, body, err)
				}
				time.Sleep(100 * time.Millisecond)
			}
		}
	}
	waitHTTPOK(t, h.readClient, h.feURL+server.PathHealth, `"ok"`, "frontend health after recovery")
	h.probe(false)

	finalCorpus := make([]*trajcover.Trajectory, 0, len(h.live))
	for _, u := range h.live {
		finalCorpus = append(finalCorpus, u)
	}
	refIdx, err := trajcover.NewLiveShardedIndex(finalCorpus, distIndexOpts())
	if err != nil {
		t.Fatal(err)
	}
	refSrv := server.New(refIdx, server.Config{Workers: 2, QueueDepth: 16, DefaultTimeout: 30 * time.Second})
	defer refSrv.Close()
	refTS := httptest.NewServer(refSrv.Handler())
	defer refTS.Close()
	for _, probe := range []struct {
		path string
		body []byte
	}{
		{server.PathTopK, h.topkBody},
		{server.PathServiceValues, h.svBody},
	} {
		st, got, err := h.post(h.readClient, h.feURL+probe.path, probe.body)
		if err != nil || st != http.StatusOK {
			t.Fatalf("final %s via frontend: %d (err %v)", probe.path, st, err)
		}
		st, want, err := h.post(h.readClient, refTS.URL+probe.path, probe.body)
		if err != nil || st != http.StatusOK {
			t.Fatalf("final %s via reference: %d (err %v)", probe.path, st, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final %s diverged from single-process build\n got: %s\nwant: %s", probe.path, got, want)
		}
	}

	// Drain the whole tier gracefully: SIGTERM everywhere, exit 0
	// everywhere — including the twice-restarted members.
	for _, c := range all {
		c.terminate()
	}
	log, err := os.ReadFile(fe.logFile)
	if err != nil || !strings.Contains(string(log), "drained, bye") {
		t.Fatalf("frontend drain log missing (err %v):\n%s", err, log)
	}
}
