package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/trajcover/trajcover/internal/bench"
)

// writeRunDoc writes a minimal BENCH_*.json document for runDiff.
func writeRunDoc(t *testing.T, dir, name string, rows []bench.Row) string {
	t.Helper()
	doc := bench.RunDoc{Rows: rows}
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// row builds one gateable/informational measurement row.
func row(exp, x, method, yLabel string, y float64) bench.Row {
	return bench.Row{Experiment: exp, X: x, Method: method, YLabel: yLabel, Y: y}
}

// TestRunDiffExitCodes pins the -diff exit-code contract that CI
// depends on: 0 for clean runs AND for worsened informational "(n)"
// series (they print but never gate), 1 only when a genuine
// timing/throughput series regresses beyond the threshold, 2 for
// usage and parse errors.
func TestRunDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	base := []bench.Row{
		row("churn", "1000", "insert", "seconds", 1.0),
		row("churn", "1000", "swaps (n)", "seconds", 4),
		row("mmaptier", "1000", "heap", "restores/sec", 5.0),
		// Sub-millisecond baseline: below the gate floor, never fails.
		row("micro", "10", "lookup", "seconds", 1e-5),
	}
	old := writeRunDoc(t, dir, "old.json", base)

	clone := func(mutate func(rows []bench.Row)) []bench.Row {
		rows := append([]bench.Row(nil), base...)
		mutate(rows)
		return rows
	}

	badPath := filepath.Join(dir, "malformed.json")
	if err := os.WriteFile(badPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		args []string
		want int
	}{
		{"usage: one arg", []string{old}, 2},
		{"usage: missing file", []string{old, filepath.Join(dir, "absent.json")}, 2},
		{"parse error", []string{old, badPath}, 2},
		{"identical runs are clean", []string{old, writeRunDoc(t, dir, "same.json", base)}, 0},
		{"informational (n) worsening does not gate", []string{old, writeRunDoc(t, dir, "info.json", clone(func(r []bench.Row) {
			r[1].Y = 40 // 10x more swaps: printed, never a regression
		}))}, 0},
		{"below-floor timing swing does not gate", []string{old, writeRunDoc(t, dir, "floor.json", clone(func(r []bench.Row) {
			r[3].Y = 1e-4 // 10x slower but sub-millisecond baseline
		}))}, 0},
		{"timing regression gates", []string{old, writeRunDoc(t, dir, "slow.json", clone(func(r []bench.Row) {
			r[0].Y = 2.0 // 2x slower insert
		}))}, 1},
		{"throughput regression gates", []string{old, writeRunDoc(t, dir, "tput.json", clone(func(r []bench.Row) {
			r[2].Y = 2.0 // restores/sec drops 60%
		}))}, 1},
		{"improvement is clean", []string{old, writeRunDoc(t, dir, "fast.json", clone(func(r []bench.Row) {
			r[0].Y = 0.5
			r[2].Y = 10.0
		}))}, 0},
		// A series renamed between runs (mmaptier's rows once named the
		// snapshot format) is a new row, never a breach, however it moved.
		{"a renamed series is new, not a regression", []string{writeRunDoc(t, dir, "retired.json", clone(func(r []bench.Row) {
			r[2].Method, r[2].Y = "heap(TQSNAP03)", 50.0
		})), old}, 0},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := runDiff(tc.args, 0.25); got != tc.want {
				t.Fatalf("runDiff(%v) = %d, want %d", tc.args, got, tc.want)
			}
		})
	}
}
