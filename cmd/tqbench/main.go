// Command tqbench regenerates the tables and figures of the paper's
// evaluation section on synthetic stand-in datasets, and diffs the
// machine-readable output of two runs for the CI perf-regression gate.
//
// Usage:
//
//	tqbench [-exp fig7a,fig7c] [-scale 0.05] [-psi 300] [-repeats 3] [-seed 1] [-json out.json]
//	tqbench -diff [-threshold 0.25] old.json new.json
//
// -exp all (the default) runs every experiment in paper order. -scale is
// the fraction of the paper-scale dataset cardinalities to generate;
// scale 1.0 reproduces Table II sizes (slow: the baseline methods are two
// to three orders of magnitude slower than TQ(Z), which is the point).
// Output is the same rows/series the paper's figures plot; see
// EXPERIMENTS.md for a recorded run and the paper-vs-measured comparison.
// -json additionally writes the measurements as machine-readable rows
// (config + one row per experiment/method/x-tick), the format CI and
// perf-trajectory tooling consume (BENCH_*.json).
//
// -diff joins two BENCH_*.json documents on (experiment, x, method),
// prints the per-series deltas, and exits non-zero when any timing or
// throughput series is worse than -threshold (relative; 0.25 = 25%).
// Quality metrics and rows present in only one run are reported but
// never gate. CI runs this against the previous workflow artifact so
// perf regressions fail the build.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/trajcover/trajcover/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		scale     = flag.Float64("scale", 0.02, "fraction of paper-scale dataset sizes")
		psi       = flag.Float64("psi", 300, "serving distance threshold ψ in meters")
		repeats   = flag.Int("repeats", 3, "timing repetitions (minimum is reported)")
		seed      = flag.Int64("seed", 1, "data generation seed")
		jsonPath  = flag.String("json", "", "also write results as JSON to this path")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		diff      = flag.Bool("diff", false, "diff two BENCH_*.json runs: tqbench -diff old.json new.json")
		threshold = flag.Float64("threshold", 0.25, "relative regression threshold for -diff (0.25 = 25% worse fails)")
	)
	flag.Parse()

	if *diff {
		os.Exit(runDiff(flag.Args(), *threshold))
	}

	bench.RegisterExtra(bench.Experiment{
		ID:    "wal",
		Title: "extra — WAL append throughput and replay speed vs sync policy (NYT, not in the paper)",
		Run:   expWAL,
	})
	bench.RegisterExtra(bench.Experiment{
		ID:    "tenants",
		Title: "extra — quiet-tenant request rate vs noisy co-tenant load, with and without quotas (NYT, not in the paper)",
		Run:   expTenants,
	})
	bench.RegisterExtra(bench.Experiment{
		ID:    "faults",
		Title: "extra — query latency through a WAL wedge and degraded-mode auto-recovery (NYT, not in the paper)",
		Run:   expFaults,
	})
	bench.RegisterExtra(bench.Experiment{
		ID:    "mmaptier",
		Title: "extra — frozen snapshot open: heap restore vs mmap alias, with RSS deltas (NYT, not in the paper)",
		Run:   expMmaptier,
	})
	bench.RegisterExtra(bench.Experiment{
		ID:    "mem",
		Title: "extra — live heap bytes per indexed trajectory for both index types at 1 and 2 shards (NYT/NYF/BJG, not in the paper)",
		Run:   expMem,
	})

	if *list {
		for _, e := range bench.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	ids := strings.Split(*exp, ",")
	for i := range ids {
		ids[i] = strings.TrimSpace(ids[i])
	}
	cfg := bench.Config{Scale: *scale, Psi: *psi, Repeats: *repeats, Seed: *seed}
	// Create the JSON file up front so a bad path fails before, not
	// after, a potentially hours-long run.
	var jsonFile *os.File
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqbench:", err)
			os.Exit(1)
		}
		jsonFile = f
	}
	tables, err := bench.Run(ids, cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqbench:", err)
		os.Exit(1)
	}
	if jsonFile != nil {
		if err := bench.WriteJSON(jsonFile, cfg, tables); err != nil {
			jsonFile.Close()
			fmt.Fprintln(os.Stderr, "tqbench:", err)
			os.Exit(1)
		}
		if err := jsonFile.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "tqbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tqbench: wrote %s\n", *jsonPath)
	}
}

// runDiff implements the -diff subcommand; the return value is the
// process exit code.
func runDiff(args []string, threshold float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "tqbench: -diff needs exactly two arguments: old.json new.json")
		return 2
	}
	docs := make([]bench.RunDoc, 2)
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tqbench:", err)
			return 2
		}
		docs[i], err = bench.ReadRunDoc(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tqbench: %s: %v\n", path, err)
			return 2
		}
	}
	rows, regressions := bench.DiffDocs(docs[0], docs[1], threshold)
	bench.PrintDiff(os.Stdout, rows, threshold)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "tqbench: %d series regressed beyond %.0f%%\n", regressions, threshold*100)
		return 1
	}
	fmt.Println("# no regressions")
	return 0
}
