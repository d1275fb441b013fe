package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// testScale keeps a full four-workload pass, traced and untraced, within
// seconds: 3,571 trajectories instead of 357,139.
const testScale = 0.01

// testBodies shrinks every operation count to a quarter: eight distinct
// bodies instead of distinctBodies.
const testBodies = distinctBodies / 4

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runs caches one result per (workload, traced, seed, repeat), so the
// tests below share their first runs.
var runs struct {
	sync.Mutex
	done map[string]*cachedRun
}

type cachedRun struct {
	res   *result
	spans []span
}

func runCached(t *testing.T, workload string, traced bool, seed int64, repeat int) *cachedRun {
	t.Helper()
	key, _ := json.Marshal([]any{workload, traced, seed, repeat})
	runs.Lock()
	defer runs.Unlock()
	if r := runs.done[string(key)]; r != nil {
		return r
	}
	cfg := config{seed: seed, seconds: 0.2, scale: testScale, bodies: testBodies, logf: t.Logf}
	sp := specByName(workload)
	r := &cachedRun{}
	var err error
	if traced {
		cfg.traceOut = filepath.Join(t.TempDir(), "trace.jsonl")
		if r.res, err = measureTraced(sp, cfg); err == nil {
			r.spans = readSpans(t, cfg.traceOut)
		}
	} else {
		r.res, err = measure(sp, cfg)
	}
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	if r.res.Failed != 0 || !r.res.Correct {
		t.Fatalf("%s traced=%v: %d of %d operations failed: %v", workload, traced, r.res.Failed, r.res.Attempted, r.res.firstErr)
	}
	if runs.done == nil {
		runs.done = map[string]*cachedRun{}
	}
	runs.done[string(key)] = r
	return r
}

func readSpans(t *testing.T, path string) []span {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestManifest holds BENCHMARK.json to the contract's limits and to the
// tables in this package.
func TestManifest(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		t.Helper()
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if u != "" && !unit.MatchString(u) {
			t.Errorf("%s: unit %q is outside the contract's alphabet", n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(m.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d implemented", len(m.Workloads), len(specs))
	}
	for i, w := range m.Workloads {
		check(w.Name, "")
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q, the program's is %q", i, w.Name, specs[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("%s: why must be 1..200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || len(m.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics declared, %d in the program (at most 16)", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		check(e.Name, e.Unit)
		g := endToEnd[i]
		better := "higher"
		if g.lowerBetter {
			better = "lower"
		}
		if e.Name != g.name || e.Unit != g.unit || e.Better != better || e.Bound != g.bound {
			t.Errorf("end-to-end metric %d is %+v, the program's is %+v", i, e, g)
		}
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}
	for _, p := range m.PerLayer {
		check(p.Name, p.Unit)
		if p.Better != "lower" && p.Better != "higher" {
			t.Errorf("%s: better is %q", p.Name, p.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// TestSelfTest runs every workload both ways at testScale and checks that
// each run emits exactly the declared metrics with the declared units,
// that no operation fails, and that the trace is a well-formed forest.
func TestSelfTest(t *testing.T) {
	m := readManifest(t)
	for _, sp := range specs {
		untraced := runCached(t, sp.name, false, 1, 0)
		if got, want := len(untraced.res.Metrics), len(m.EndToEnd); got != want {
			t.Errorf("%s: %d end-to-end metrics emitted, %d declared", sp.name, got, want)
		}
		for _, e := range m.EndToEnd {
			got, ok := untraced.res.Metrics[e.Name]
			if !ok || got.Unit != e.Unit {
				t.Errorf("%s: %s emitted as %+v (present %v), declared unit %q", sp.name, e.Name, got, ok, e.Unit)
			}
			if !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: %s = %v, want a positive finite number", sp.name, e.Name, got.Value)
			}
		}

		traced := runCached(t, sp.name, true, 1, 0)
		if got, want := len(traced.res.Metrics), len(m.PerLayer); got != want {
			t.Errorf("%s: %d per-layer metrics emitted, %d declared", sp.name, got, want)
		}
		for _, p := range m.PerLayer {
			got, ok := traced.res.Metrics[p.Name]
			if !ok || got.Unit != p.Unit {
				t.Errorf("%s: %s emitted as %+v (present %v), declared unit %q", sp.name, p.Name, got, ok, p.Unit)
			}
			if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) || got.Value < 0 {
				t.Errorf("%s: %s = %v, want a finite number >= 0", sp.name, p.Name, got.Value)
			}
		}
		checkForest(t, sp, traced.spans)
	}
	if hit := runCached(t, "hot_repeat", true, 1, 0).res.Metrics["rescache.hit_ratio"].Value; hit != 1 {
		t.Errorf("hot_repeat: rescache.hit_ratio = %v, want 1: the timed requests must all be hits", hit)
	}
	if work := runCached(t, "hot_repeat", true, 1, 0).res.Metrics["query.topk_ms"].Value; work != 0 {
		t.Errorf("hot_repeat: query.topk_ms = %v, want 0: a hit does no tree work", work)
	}
}

// checkForest verifies the trace's shape: one root per request, every
// other span under a span of the same request, children inside their
// parent's interval and never overlapping — so every self time is
// non-negative before any flooring.
func checkForest(t *testing.T, sp *spec, spans []span) {
	t.Helper()
	roots := map[int]int{}
	childTime := map[int]int64{}
	lastEnd := map[int]int64{}
	for i, s := range spans {
		if s.ID != i+1 {
			t.Fatalf("%s: span %d has id %d", sp.name, i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", sp.name, s.ID, s.Name)
		}
		if s.Parent == 0 {
			roots[s.Req]++
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("%s: span %d names later span %d as its parent", sp.name, s.ID, s.Parent)
		}
		parent := spans[s.Parent-1]
		if parent.Req != s.Req {
			t.Errorf("%s: span %d of request %d hangs under request %d", sp.name, s.ID, s.Req, parent.Req)
		}
		if parent.Parent == 0 {
			continue // the direct replay runs after the HTTP span it explains
		}
		if s.Start < parent.Start || s.End > parent.End {
			t.Errorf("%s: span %d (%s) is not inside its parent %d", sp.name, s.ID, s.Name, parent.ID)
		}
		if s.Start < lastEnd[s.Parent] {
			t.Errorf("%s: span %d (%s) overlaps its previous sibling", sp.name, s.ID, s.Name)
		}
		lastEnd[s.Parent] = s.End
		childTime[s.Parent] += s.End - s.Start
	}
	if want := sp.traceOps * testBodies / distinctBodies; len(roots) != want {
		t.Errorf("%s: %d requests traced, want %d", sp.name, len(roots), want)
	}
	for req, n := range roots {
		if n != 1 {
			t.Errorf("%s: request %d has %d roots", sp.name, req, n)
		}
	}
	for id, sum := range childTime {
		if s := spans[id-1]; sum > s.End-s.Start {
			t.Errorf("%s: span %d (%s) has negative self time", sp.name, id, s.Name)
		}
	}
	tr := &tracer{spans: spans}
	for i, self := range tr.selfTimes() {
		if self < 0 {
			t.Errorf("%s: span %d has self time %v", sp.name, i+1, self)
		}
	}
}

// TestDeterminism runs the same seed twice: same inputs, same work counts,
// and allocations per request within one percent. Another seed is another
// input.
func TestDeterminism(t *testing.T) {
	same := func(workload string, names ...string) {
		t.Helper()
		a, b := runCached(t, workload, true, 1, 0).res, runCached(t, workload, true, 1, 1).res
		if a.inputsSHA != b.inputsSHA {
			t.Errorf("%s: inputs_sha256 differs between two runs of seed 1", workload)
		}
		for _, n := range names {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s: %s = %v then %v with the same seed", workload, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
	same("topk_scan", "query.nodes_visited_per_req", "query.entries_scored_per_req", "query.relaxations_per_req", "query.exhaustive_ratio", "tqtree.nodes", "tqtree.entries")
	same("dist_topk", "dist.bound_rpcs_per_req", "dist.exact_rpcs_per_req", "dist.pruned_per_req", "dist.failovers")
	same("churn_mix", "wal.records")

	a := runCached(t, "topk_scan", false, 1, 0).res.Metrics["allocs_per_req"].Value
	b := runCached(t, "topk_scan", false, 1, 1).res.Metrics["allocs_per_req"].Value
	if math.Abs(a-b) > 0.01*a {
		t.Errorf("topk_scan: allocs_per_req = %v then %v with the same seed, more than 1%% apart", a, b)
	}
	if other := runCached(t, "topk_scan", false, 2, 0).res; other.inputsSHA == runCached(t, "topk_scan", false, 1, 0).res.inputsSHA {
		t.Errorf("seeds 1 and 2 generated the same inputs")
	}
}

// TestCompare feeds -compare two sets written the way -out writes them:
// equal sets pass, a set one bound worse on one metric is a breach, and a
// set whose own spread exceeds the bound is unresolved, not a breach.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale func(workload, metric string, run int) float64) string {
		path := filepath.Join(dir, name)
		for run := 0; run < 5; run++ {
			for _, sp := range specs {
				rec := record{Workload: sp.name, Seed: int64(run), result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{}}}
				for _, g := range endToEnd {
					rec.Metrics[g.name] = metric{Value: 100 * scale(sp.name, g.name, run), Unit: g.unit}
				}
				if err := appendLine(path, rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := func(string, string, int) float64 { return 1 }
	base := write("base.jsonl", steady)
	var report strings.Builder
	if ok, err := compareFiles(&report, base, write("same.jsonl", steady)); err != nil || !ok {
		t.Errorf("equal sets: ok=%v err=%v\n%s", ok, err, report.String())
	}
	worse := write("worse.jsonl", func(w, m string, _ int) float64 {
		if w == "churn_mix" && m == "heap_live_mb" {
			return 1.06 // bound is 0.05
		}
		return 1
	})
	report.Reset()
	if ok, err := compareFiles(&report, base, worse); err != nil || ok {
		t.Errorf("a 6%% larger heap under a 5%% bound: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(report.String(), "BREACH") {
		t.Errorf("report does not mark the breach:\n%s", report.String())
	}
	noisy := write("noisy.jsonl", func(w, m string, run int) float64 {
		if w == "topk_scan" && m == "allocs_per_req" {
			return 1 + 0.05*float64(run-2) // same median, spread over the 3% bound
		}
		return 1
	})
	report.Reset()
	if ok, err := compareFiles(&report, base, noisy); err != nil || !ok {
		t.Errorf("a noisy set with the same median: ok=%v err=%v", ok, err)
	}
	if !strings.Contains(report.String(), "unresolved") {
		t.Errorf("report does not mark the noisy pair unresolved:\n%s", report.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	got := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	want := [3]float64{3.5, 24, 160}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
