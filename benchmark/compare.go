package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// gated is one end-to-end metric as BENCHMARK.json declares it: the
// direction that is better, and the share of the baseline's median by
// which it may worsen before a change counts as a regression. The
// self-test holds this table and BENCHMARK.json equal.
type gated struct {
	name, unit  string
	lowerBetter bool
	bound       float64
}

var endToEnd = []gated{
	{"setup_s", "s", true, 0.25},
	{"allocs_per_req", "count", true, 0.03},
	{"heap_live_mb", "MB", true, 0.05},
}

// quartiles returns the three quartiles of vals the way Python's
// statistics.quantiles(vals, n=4) does (exclusive method), which is what
// the driver computes. It needs at least two values.
func quartiles(vals []float64) (q [3]float64) {
	data := append([]float64(nil), vals...)
	sort.Float64s(data)
	m := len(data) + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(data)-1 {
			j = len(data) - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return q
}

// readRuns loads the untraced results of an -out file, keyed by workload
// then metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Traced {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, m := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], m.Value)
		}
	}
	return runs, sc.Err()
}

// compareFiles prints, for every workload and end-to-end metric, both
// sets' medians and quartiles, how much worse b is than a, and the bound.
// A pair is unresolved when either set's own interquartile spread exceeds
// the bound, and a breach when b's median is worse than a's by more than
// the bound. It reports whether there was no breach.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-10s %-15s %5s %12s %22s %12s %22s %8s %6s  %s\n",
		"workload", "metric", "runs", "median A", "quartiles A", "median B", "quartiles B", "worse", "bound", "verdict")
	for _, sp := range specs {
		for _, g := range endToEnd {
			va, vb := a[sp.name][g.name], b[sp.name][g.name]
			if len(va) < 2 || len(vb) < 2 {
				return false, fmt.Errorf("%s %s: need at least 2 runs in each file, have %d and %d", sp.name, g.name, len(va), len(vb))
			}
			qa, qb := quartiles(va), quartiles(vb)
			worse := (qb[1] - qa[1]) / qa[1]
			if !g.lowerBetter {
				worse = -worse
			}
			spread := max((qa[2]-qa[0])/qa[1], (qb[2]-qb[0])/qb[1])
			verdict := "ok"
			switch {
			case worse > g.bound:
				verdict = "BREACH"
				ok = false
			case spread > g.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-10s %-15s %2d/%-2d %12.4f %10.4f..%-10.4f %12.4f %10.4f..%-10.4f %+7.2f%% %5.0f%%  %s (spread %.2f%%)\n",
				sp.name, g.name, len(va), len(vb), qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], 100*worse, 100*g.bound, verdict, 100*spread)
		}
	}
	return ok, nil
}
