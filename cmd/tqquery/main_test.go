package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// writeWorkload generates a tiny dataset pair on disk and returns the
// file paths.
func writeWorkload(t *testing.T) (usersPath, routesPath string) {
	t.Helper()
	dir := t.TempDir()
	city := datagen.NewYork()
	usersPath = filepath.Join(dir, "users.csv")
	routesPath = filepath.Join(dir, "routes.csv")

	uf, err := os.Create(usersPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trajectory.WriteCSV(uf, datagen.TaxiTrips(city, 500, 1)); err != nil {
		t.Fatal(err)
	}
	uf.Close()

	rf, err := os.Create(routesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trajectory.WriteFacilitiesCSV(rf, datagen.BusRoutes(city, 20, 8, 2)); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	return usersPath, routesPath
}

func TestRunTopK(t *testing.T) {
	users, routes := writeWorkload(t)
	var out strings.Builder
	err := run([]string{"-users", users, "-routes", routes, "-query", "topk", "-k", "3"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "loaded 500 user trajectories, 20 facility routes") {
		t.Errorf("missing load line:\n%s", got)
	}
	if !strings.Contains(got, "top-3 facilities") {
		t.Errorf("missing results header:\n%s", got)
	}
	if strings.Count(got, "route ") < 3 {
		t.Errorf("fewer than 3 result rows:\n%s", got)
	}
}

func TestRunMaxCovAllAlgorithms(t *testing.T) {
	users, routes := writeWorkload(t)
	for _, alg := range []string{"twostep", "greedy", "genetic", "exact"} {
		var out strings.Builder
		err := run([]string{"-users", users, "-routes", routes,
			"-query", "maxcov", "-k", "2", "-alg", alg}, &out)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if !strings.Contains(out.String(), "max-2-coverage") {
			t.Errorf("%s: missing result line:\n%s", alg, out.String())
		}
	}
}

func TestRunServiceQuery(t *testing.T) {
	users, routes := writeWorkload(t)
	var out strings.Builder
	err := run([]string{"-users", users, "-routes", routes,
		"-query", "service", "-facility", "0"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "service value of route 0") {
		t.Errorf("missing service line:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	users, routes := writeWorkload(t)
	cases := [][]string{
		{},                // missing required flags
		{"-users", users}, // missing routes
		{"-users", "/nope.csv", "-routes", routes},
		{"-users", users, "-routes", routes, "-variant", "bogus"},
		{"-users", users, "-routes", routes, "-ordering", "bogus"},
		{"-users", users, "-routes", routes, "-scenario", "bogus"},
		{"-users", users, "-routes", routes, "-query", "bogus"},
		{"-users", users, "-routes", routes, "-query", "maxcov", "-alg", "bogus"},
		{"-users", users, "-routes", routes, "-query", "service"}, // no -facility
		{"-users", users, "-routes", routes, "-query", "service", "-facility", "9999"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v: expected error", args)
		}
	}
}

func TestRunMultipointVariants(t *testing.T) {
	dir := t.TempDir()
	city := datagen.NewYork()
	usersPath := filepath.Join(dir, "checkins.csv")
	routesPath := filepath.Join(dir, "routes.csv")
	uf, _ := os.Create(usersPath)
	if err := trajectory.WriteCSV(uf, datagen.Checkins(city, 300, 5, 3)); err != nil {
		t.Fatal(err)
	}
	uf.Close()
	rf, _ := os.Create(routesPath)
	if err := trajectory.WriteFacilitiesCSV(rf, datagen.BusRoutes(city, 10, 8, 4)); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	for _, variant := range []string{"segmented", "full"} {
		var out strings.Builder
		err := run([]string{"-users", usersPath, "-routes", routesPath,
			"-variant", variant, "-scenario", "pointcount", "-query", "topk", "-k", "2"}, &out)
		if err != nil {
			t.Fatalf("%s: %v", variant, err)
		}
	}
	// TwoPoint + pointcount over multipoint data must fail loudly.
	var out strings.Builder
	err := run([]string{"-users", usersPath, "-routes", routesPath,
		"-variant", "twopoint", "-scenario", "pointcount", "-query", "topk"}, &out)
	if err == nil {
		t.Error("twopoint+pointcount over multipoint data did not error")
	}
}

// TestRunShardedTopKMatchesSingleTree checks the -shards path answers the
// same topk as the single-tree path, for both partitioners.
func TestRunShardedTopKMatchesSingleTree(t *testing.T) {
	users, routes := writeWorkload(t)
	var single strings.Builder
	if err := run([]string{"-users", users, "-routes", routes, "-query", "topk", "-k", "5"}, &single); err != nil {
		t.Fatal(err)
	}
	wantRows := resultRows(single.String())
	for _, part := range []string{"hash", "grid"} {
		var out strings.Builder
		err := run([]string{
			"-users", users, "-routes", routes, "-query", "topk", "-k", "5",
			"-shards", "4", "-partitioner", part,
		}, &out)
		if err != nil {
			t.Fatal(err)
		}
		got := out.String()
		if !strings.Contains(got, "indexed into 4 shard(s) ("+part+")") {
			t.Errorf("%s: missing shard line:\n%s", part, got)
		}
		if gotRows := resultRows(got); gotRows != wantRows {
			t.Errorf("%s: sharded results differ:\n%s\nwant:\n%s", part, gotRows, wantRows)
		}
	}
}

// resultRows extracts the ranked result lines ("  1. route ...") from
// tqquery output so sharded and single runs can be compared directly.
func resultRows(out string) string {
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, ". route ") {
			rows = append(rows, strings.TrimSpace(line))
		}
	}
	return strings.Join(rows, "\n")
}

// TestRunShardedRejections covers the sharded-mode error paths; a
// MaxkCovRST query is not one — it answers on sharded and frozen indexes
// as on the single tree.
func TestRunShardedRejections(t *testing.T) {
	users, routes := writeWorkload(t)
	var single strings.Builder
	if err := run([]string{"-users", users, "-routes", routes, "-query", "maxcov", "-k", "3"}, &single); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{{"-shards", "2"}, {"-shards", "2", "-frozen"}, {"-frozen"}, {"-shards", "2", "-partitioner", "grid"}} {
		var out strings.Builder
		if err := run(append([]string{"-users", users, "-routes", routes, "-query", "maxcov", "-k", "3"}, mode...), &out); err != nil {
			t.Fatalf("maxcov %v: %v", mode, err)
		}
		if got, want := resultRows(out.String()), resultRows(single.String()); got != want || got == "" {
			t.Errorf("maxcov %v picks:\n%s\nsingle tree:\n%s", mode, got, want)
		}
	}
	var out strings.Builder
	if err := run([]string{
		"-users", users, "-routes", routes, "-query", "topk", "-shards", "2", "-partitioner", "nope",
	}, &out); err == nil {
		t.Error("unknown partitioner accepted")
	}
}

// TestRunLiveTopKMatchesSingleTree: the mutable index and its frozen
// form answer the same top-k as the one-shard index, for 1 and 2 shards.
func TestRunLiveTopKMatchesSingleTree(t *testing.T) {
	users, routes := writeWorkload(t)
	var single strings.Builder
	if err := run([]string{"-users", users, "-routes", routes, "-query", "topk", "-k", "5"}, &single); err != nil {
		t.Fatal(err)
	}
	wantRows := resultRows(single.String())
	for _, shards := range []string{"1", "2"} {
		for _, frozen := range []bool{false, true} {
			args := []string{"-users", users, "-routes", routes, "-query", "topk", "-k", "5", "-shards", shards}
			if frozen {
				args = append(args, "-frozen")
			}
			var out strings.Builder
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			if !strings.Contains(got, "indexed into "+shards+" shard(s)") {
				t.Errorf("missing shard line:\n%s", got)
			}
			if strings.Contains(got, "serving from the frozen columnar index") != frozen {
				t.Errorf("frozen %v: wrong serving line:\n%s", frozen, got)
			}
			if gotRows := resultRows(got); gotRows != wantRows {
				t.Errorf("%s shards, frozen %v: results differ:\n%s\nwant:\n%s", shards, frozen, gotRows, wantRows)
			}
		}
	}
}

// TestRunLiveRejections: the retired write-mode flags -live, -churn and
// -churn-maxdelta are unknown flags.
func TestRunLiveRejections(t *testing.T) {
	users, routes := writeWorkload(t)
	for _, retired := range [][]string{{"-live"}, {"-churn", "10"}, {"-churn-maxdelta", "48"}} {
		var out strings.Builder
		args := append([]string{"-users", users, "-routes", routes, "-query", "topk"}, retired...)
		if err := run(args, &out); err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+retired[0]) {
			t.Errorf("%s: err = %v, want an unknown flag", retired[0], err)
		}
	}
}
