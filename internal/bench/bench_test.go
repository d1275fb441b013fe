package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// tinyConfig keeps smoke tests fast: minimum dataset sizes, one repeat.
func tinyConfig() Config {
	return Config{Scale: 0.0001, Repeats: 1, Seed: 1}
}

func TestRegistryCoversEveryFigure(t *testing.T) {
	want := []string{
		"datasets",
		"fig6a", "fig6b",
		"fig7a", "fig7b", "fig7c", "fig7d",
		"fig8a", "fig8b",
		"fig9a", "fig9b",
		"fig10a", "fig10b", "fig10c", "fig10d",
		"fig11a", "fig11b",
		"psi",
		"build",
		"scaling",
		"thrpt",
		"pbuild",
		"shards",
		"bound",
	}
	reg := Registry()
	have := map[string]bool{}
	for _, e := range reg {
		have[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("registry missing %s", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(reg), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	for _, id := range []string{"nope", "churn"} {
		var buf bytes.Buffer
		_, err := Run([]string{id}, tinyConfig(), &buf)
		if err == nil || !strings.Contains(err.Error(), "unknown experiment") || !strings.Contains(err.Error(), "(known: ") {
			t.Fatalf("Run(%q) = %v, want the unknown-experiment error", id, err)
		}
	}
}

func TestRunReturnsTablesAndJSON(t *testing.T) {
	var buf bytes.Buffer
	tables, err := Run([]string{"datasets"}, tinyConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 1 || tables[0].ID != "datasets" {
		t.Fatalf("unexpected tables %+v", tables)
	}
	var out bytes.Buffer
	if err := WriteJSON(&out, tinyConfig(), tables); err != nil {
		t.Fatal(err)
	}
	var doc RunDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("emitted JSON does not round-trip: %v", err)
	}
	if doc.Config.Repeats != 1 || doc.Config.Scale != 0.0001 {
		t.Errorf("config not recorded: %+v", doc.Config)
	}
	wantRows := 0
	for _, s := range tables[0].Series {
		wantRows += len(s.Y)
	}
	if len(doc.Rows) != wantRows {
		t.Errorf("%d rows, want %d", len(doc.Rows), wantRows)
	}
	for _, r := range doc.Rows {
		if r.Experiment != "datasets" || r.Method == "" || r.X == "" {
			t.Errorf("malformed row %+v", r)
		}
	}
}

func TestThroughputExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment in -short mode")
	}
	ctx := NewContext(tinyConfig())
	for _, tc := range []struct {
		run  func(*Context) (*Table, error)
		axis []int
	}{
		{expThroughput, workerAxis},
		{expParallelBuild, workerAxis},
		{expShards, shardAxis},
	} {
		table, err := tc.run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(table.XTicks) != len(tc.axis) {
			t.Fatalf("%s: %d ticks, want %d", table.ID, len(table.XTicks), len(tc.axis))
		}
		for _, s := range table.Series {
			if len(s.Y) != len(table.XTicks) {
				t.Fatalf("%s series %s ragged", table.ID, s.Method)
			}
			for i, y := range s.Y {
				if y < 0 {
					t.Errorf("%s series %s tick %d negative", table.ID, s.Method, i)
				}
			}
		}
	}
}

func TestDatasetsExperiment(t *testing.T) {
	ctx := NewContext(tinyConfig())
	table, err := expDatasets(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(table.XTicks) != 3 || len(table.Series) != 2 {
		t.Fatalf("unexpected shape: %d ticks, %d series", len(table.XTicks), len(table.Series))
	}
	for _, s := range table.Series {
		for i, y := range s.Y {
			if y <= 0 {
				t.Errorf("series %s tick %d non-positive", s.Method, i)
			}
		}
	}
}

func TestTimingExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments in -short mode")
	}
	// One representative experiment per family, at tiny scale.
	ctx := NewContext(tinyConfig())
	for _, id := range []string{"fig6b", "fig7b", "fig10c", "fig11b", "build"} {
		var exp Experiment
		for _, e := range Registry() {
			if e.ID == id {
				exp = e
			}
		}
		table, err := exp.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(table.XTicks) == 0 || len(table.Series) == 0 {
			t.Fatalf("%s produced empty table", id)
		}
		for _, s := range table.Series {
			if len(s.Y) != len(table.XTicks) {
				t.Fatalf("%s series %s has %d values for %d ticks",
					id, s.Method, len(s.Y), len(table.XTicks))
			}
		}
		var buf bytes.Buffer
		table.Print(&buf)
		out := buf.String()
		if !strings.Contains(out, table.ID) || !strings.Contains(out, table.XLabel) {
			t.Errorf("%s print output missing headers:\n%s", id, out)
		}
	}
}

func TestApproxRatiosWithinBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("ratio experiment in -short mode")
	}
	ctx := NewContext(tinyConfig())
	fs := ctx.Routes("ny", 12, 16)
	g, gn, err := approxRatios(ctx, 500, fs)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]float64{"greedy": g, "genetic": gn} {
		if r < 0 || r > 1+1e-9 {
			t.Errorf("%s ratio %v outside [0,1]", name, r)
		}
	}
}

func TestTablePrintAlignment(t *testing.T) {
	tb := &Table{
		ID: "x", Title: "t", XLabel: "param", YLabel: "seconds per query",
		XTicks: []string{"1", "10"},
		Series: []Series{{Method: "BL", Y: []float64{0.5, 1.25}}, {Method: "TQ", Y: []float64{0.001}}},
	}
	var buf bytes.Buffer
	tb.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "0.500000") {
		t.Errorf("seconds not formatted: %s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("missing-value placeholder absent: %s", out)
	}
}

func TestScaledClamps(t *testing.T) {
	ctx := NewContext(Config{Scale: 0.00001, Seed: 1})
	if got := ctx.scaled(1000000); got != 500 {
		t.Errorf("scaled floor = %d, want 500", got)
	}
	ctx2 := NewContext(Config{Scale: 50, Seed: 1})
	if got := ctx2.scaled(1000); got != 1000 {
		t.Errorf("scaled cap = %d, want 1000", got)
	}
}

func TestContextMemoization(t *testing.T) {
	ctx := NewContext(tinyConfig())
	a := ctx.Users(dsNYT, 100000)
	b := ctx.Users(dsNYT, 100000)
	if a != b {
		t.Error("Users not memoized")
	}
	e1 := ctx.Engine(dsNYT, 100000, 0, 1)
	e2 := ctx.Engine(dsNYT, 100000, 0, 1)
	if e1 != e2 {
		t.Error("Engine not memoized")
	}
	r1 := ctx.Routes("ny", 8, 8)
	r2 := ctx.Routes("ny", 8, 8)
	if &r1[0] != &r2[0] {
		t.Error("Routes not memoized")
	}
}
