package bench

// Perf-trajectory diffing: join two tqbench -json runs (BENCH_*.json)
// on (experiment, x, method) and flag regressions. This is the engine
// behind `tqbench -diff old.json new.json`, which CI runs against the
// previous workflow artifact so a slowdown on the timing/throughput
// series fails the build instead of landing silently.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// DiffDirection says which way a series' y-axis points.
type DiffDirection int

const (
	// LowerIsBetter gates series measured in seconds.
	LowerIsBetter DiffDirection = iota
	// HigherIsBetter gates throughput series (queries/sec).
	HigherIsBetter
	// Informational series (quality metrics, counts) are printed but
	// never gate.
	Informational
)

// directionOf infers the gate direction from the row's y-axis label.
// Experiments label timing series with "seconds" and throughput series
// with "/sec"; anything else (users served, approximation ratios,
// dataset inventories) is informational.
func directionOf(yLabel string) DiffDirection {
	l := strings.ToLower(yLabel)
	// Throughput first: the shards experiment's label mentions both
	// ("queries/sec (build series: seconds)"), and its series are
	// predominantly rates.
	if strings.Contains(l, "/sec") || strings.Contains(l, "per second") {
		return HigherIsBetter
	}
	if strings.Contains(l, "seconds") {
		return LowerIsBetter
	}
	return Informational
}

// DiffRow is one joined (experiment, x, method) measurement pair.
type DiffRow struct {
	Experiment string
	X          string
	Method     string
	Direction  DiffDirection
	Old, New   float64
	// Delta is the relative change (New-Old)/Old; +0.25 means the new
	// value is 25% higher.
	Delta float64
	// Regressed marks a gated row whose change exceeds the threshold in
	// the worse direction.
	Regressed bool
	// BelowFloor marks a timing/throughput row whose baseline operation
	// is faster than minGatePerOp: printed, never gated.
	BelowFloor bool
	// OnlyOld/OnlyNew mark rows missing from the other run (experiment
	// sets changed); such rows never gate.
	OnlyOld, OnlyNew bool
}

// minGatePerOp is the baseline per-operation duration (seconds) below
// which a timing/throughput row is too noise-dominated to gate: on
// shared CI runners, sub-millisecond operations routinely swing 2×
// between runs from scheduler, frequency, and cache effects alone, and
// one noisy baseline on main would then fail every subsequent push.
// Rows under the floor are still printed, just never counted.
const minGatePerOp = 1e-3

// perOpSeconds converts a gated row's baseline to a per-operation
// duration: seconds series carry it directly, throughput series invert.
func perOpSeconds(d DiffDirection, oldY float64) float64 {
	switch d {
	case LowerIsBetter:
		return oldY
	case HigherIsBetter:
		if oldY > 0 {
			return 1 / oldY
		}
	}
	return 0
}

// ReadRunDoc parses a tqbench -json document.
func ReadRunDoc(r io.Reader) (RunDoc, error) {
	var doc RunDoc
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return RunDoc{}, fmt.Errorf("bench: parse run document: %w", err)
	}
	return doc, nil
}

func diffKey(r Row) string {
	return r.Experiment + "\x00" + r.X + "\x00" + r.Method
}

// rowDirection resolves a row's gate direction. Mixed-unit tables (the
// shards and frozen experiments) label their throughput axis "/sec" but
// mark individual seconds series with an "(s)" suffix on the method or
// x-tick; those rows gate as timings. An "(n)" suffix marks count
// series inside a timing table (pbuild's `BuildFrozen allocs(n)`):
// informational, printed but never gated.
func rowDirection(r Row) DiffDirection {
	if strings.Contains(r.Method, "(n)") || strings.Contains(r.X, "(n)") {
		return Informational
	}
	d := directionOf(r.YLabel)
	if d == HigherIsBetter && (strings.Contains(r.Method, "(s)") || strings.Contains(r.X, "(s)")) {
		return LowerIsBetter
	}
	return d
}

// DiffDocs joins two runs on (experiment, x, method) and returns the
// per-series deltas in a stable order, plus the number of gated rows
// whose slowdown exceeds threshold (e.g. 0.25 = 25% worse). Rows whose
// old value is zero, whose series is informational, or which exist in
// only one run are reported but never counted as regressions.
func DiffDocs(oldDoc, newDoc RunDoc, threshold float64) ([]DiffRow, int) {
	oldRows := make(map[string]Row, len(oldDoc.Rows))
	for _, r := range oldDoc.Rows {
		oldRows[diffKey(r)] = r
	}
	seen := make(map[string]bool, len(newDoc.Rows))
	out := make([]DiffRow, 0, len(newDoc.Rows))
	regressions := 0
	for _, nr := range newDoc.Rows {
		key := diffKey(nr)
		seen[key] = true
		d := DiffRow{
			Experiment: nr.Experiment,
			X:          nr.X,
			Method:     nr.Method,
			Direction:  rowDirection(nr),
			New:        nr.Y,
		}
		or, ok := oldRows[key]
		if !ok {
			d.OnlyNew = true
			out = append(out, d)
			continue
		}
		d.Old = or.Y
		if or.Y != 0 {
			d.Delta = (nr.Y - or.Y) / or.Y
			if d.Direction != Informational && perOpSeconds(d.Direction, or.Y) < minGatePerOp {
				d.BelowFloor = true
			} else {
				switch d.Direction {
				case LowerIsBetter:
					d.Regressed = d.Delta > threshold
				case HigherIsBetter:
					d.Regressed = -d.Delta > threshold
				}
			}
			if d.Regressed {
				regressions++
			}
		}
		out = append(out, d)
	}
	for key, or := range oldRows {
		if seen[key] {
			continue
		}
		out = append(out, DiffRow{
			Experiment: or.Experiment,
			X:          or.X,
			Method:     or.Method,
			Direction:  rowDirection(or),
			Old:        or.Y,
			OnlyOld:    true,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Experiment != out[j].Experiment {
			return out[i].Experiment < out[j].Experiment
		}
		if out[i].Method != out[j].Method {
			return out[i].Method < out[j].Method
		}
		return out[i].X < out[j].X
	})
	return out, regressions
}

// PrintDiff renders the joined rows, one line each, regressions marked.
func PrintDiff(w io.Writer, rows []DiffRow, threshold float64) {
	fmt.Fprintf(w, "# bench diff (regression threshold %+.0f%%)\n", threshold*100)
	for _, d := range rows {
		tag := ""
		switch {
		case d.OnlyNew:
			fmt.Fprintf(w, "  %-10s %-14s x=%-8s new-only  new=%.6g\n", d.Experiment, d.Method, d.X, d.New)
			continue
		case d.OnlyOld:
			fmt.Fprintf(w, "  %-10s %-14s x=%-8s old-only  old=%.6g\n", d.Experiment, d.Method, d.X, d.Old)
			continue
		case d.Regressed:
			tag = "  REGRESSED"
		case d.BelowFloor:
			tag = "  (sub-ms op, not gated)"
		case d.Direction == Informational:
			tag = "  (info)"
		}
		fmt.Fprintf(w, "  %-10s %-14s x=%-8s old=%-12.6g new=%-12.6g delta=%+7.1f%%%s\n",
			d.Experiment, d.Method, d.X, d.Old, d.New, d.Delta*100, tag)
	}
}
