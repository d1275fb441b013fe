// Command benchmark measures the trajcover serving tier end to end and
// layer by layer. It runs internal/server and internal/dist in-process on
// loopback listeners, drives them over HTTP with its own closed-loop
// client, checks every answer, and prints the metrics BENCHMARK.json
// declares. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: topk_scan, hot_repeat, churn_mix or dist_topk (empty: all four, untraced then traced)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", 15, "length of the timed phase")
		trace    = flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 runs the traced pass and reports the per-layer metrics")
		scale    = flag.Float64("scale", 1, "fraction of the paper-scale corpus (the self-test uses 0.01)")
		traceOut = flag.String("trace-out", "", "with -trace 1, write the spans to this file as JSON lines")
		out      = flag.String("out", "", "append each result to this file as a JSON line, the input of -compare")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatalf("usage: benchmark -compare a.jsonl b.jsonl")
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	cfg := config{
		seed: *seed, seconds: *seconds, scale: *scale, traceOut: *traceOut, bodies: distinctBodies,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	}
	if *workload != "" {
		sp := specByName(*workload)
		if sp == nil {
			fatalf("unknown workload %q", *workload)
		}
		os.Exit(runOne(sp, cfg, *trace == 1, *out, true))
	}
	// No workload named: print every metric of every workload.
	code := 0
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			if c := runOne(sp, cfg, traced, *out, false); c != 0 {
				code = c
			}
		}
	}
	os.Exit(code)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

// record is one line of an -out file.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	InputsSHA  string `json:"inputs_sha256"`
	GoMaxProcs int    `json:"gomaxprocs"`
	result            // by value: encoding/json cannot fill an embedded pointer to an unexported type
}

// runOne runs one workload in one mode and prints its metrics by name.
// With asLastLine the result object is the last line of standard output,
// which is what the driver reads. The return value is the exit code: 1
// when an operation failed or the run could not finish.
func runOne(sp *spec, cfg config, traced bool, out string, asLastLine bool) int {
	run := measure
	if traced {
		run = measureTraced
	}
	res, err := run(sp, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	fmt.Printf("workload %s seed %d traced %v gomaxprocs %d inputs_sha256 %s\n",
		sp.name, cfg.seed, traced, runtime.GOMAXPROCS(0), res.inputsSHA)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("  failed/attempted %d/%d\n", res.Failed, res.Attempted)
	if res.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: first failure: %v\n", sp.name, res.firstErr)
	}
	if out != "" {
		rec := record{Workload: sp.name, Seed: cfg.seed, Traced: traced, InputsSHA: res.inputsSHA, GoMaxProcs: runtime.GOMAXPROCS(0), result: *res}
		if err := appendLine(out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if asLastLine {
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		fmt.Printf("%s\n", line)
	}
	if res.Failed > 0 {
		return 1
	}
	return 0
}

func appendLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
