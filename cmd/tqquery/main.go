// Command tqquery loads user trajectories and candidate facility routes
// from CSV files (see cmd/datagen for the format) and answers kMaxRRST or
// MaxkCovRST queries from the command line.
//
// Usage:
//
//	tqquery -users trips.csv -routes routes.csv -query topk -k 8 -psi 300
//	tqquery -users trips.csv -routes routes.csv -query maxcov -k 4 -alg genetic
//	tqquery -users checkins.csv -routes routes.csv -variant full -scenario pointcount -query topk
//	tqquery -users trips.csv -routes routes.csv -query topk -shards 4 -partitioner grid
//
// The query runs on an Index.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	trajcover "github.com/trajcover/trajcover"
	"github.com/trajcover/trajcover/internal/shard"
	"github.com/trajcover/trajcover/internal/trajectory"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tqquery:", err)
		os.Exit(1)
	}
}

// run parses args and executes the query, writing results to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("tqquery", flag.ContinueOnError)
	var (
		usersPath  = fs.String("users", "", "user trajectories CSV (required)")
		routesPath = fs.String("routes", "", "facility routes CSV (required)")
		queryKind  = fs.String("query", "topk", "query: topk|maxcov|service")
		scenario   = fs.String("scenario", "binary", "service scenario: binary|pointcount|length")
		variant    = fs.String("variant", "twopoint", "index variant: twopoint|segmented|full")
		ordering   = fs.String("ordering", "zorder", "list ordering: basic|zorder")
		alg        = fs.String("alg", "twostep", "maxcov algorithm: twostep|greedy|genetic|exact")
		k          = fs.Int("k", 8, "number of facilities to return/choose")
		psi        = fs.Float64("psi", 300, "serving distance threshold ψ")
		facility   = fs.Int("facility", -1, "facility id (query=service)")
		shards     = fs.Int("shards", 1, "partition users across this many TQ-trees (scatter-gather serving)")
		partition  = fs.String("partitioner", "hash", "shard partitioner: hash|grid")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *usersPath == "" || *routesPath == "" {
		return fmt.Errorf("-users and -routes are required")
	}

	users, err := loadUsers(*usersPath)
	if err != nil {
		return err
	}
	routes, err := loadRoutes(*routesPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "loaded %d user trajectories, %d facility routes\n", len(users), len(routes))

	opts := trajcover.IndexOptions{}
	switch *variant {
	case "twopoint":
		opts.Variant = trajcover.TwoPoint
	case "segmented":
		opts.Variant = trajcover.Segmented
	case "full":
		opts.Variant = trajcover.FullTrajectory
	default:
		return fmt.Errorf("unknown variant %q", *variant)
	}
	switch *ordering {
	case "basic":
		opts.Ordering = trajcover.BasicOrdering
	case "zorder":
		opts.Ordering = trajcover.ZOrdering
	default:
		return fmt.Errorf("unknown ordering %q", *ordering)
	}
	if opts.Partitioner, err = shard.PartitionerOf(*partition); err != nil {
		return fmt.Errorf("-partitioner: %w", err)
	}
	opts.Shards = *shards

	q := trajcover.Query{Psi: *psi}
	switch *scenario {
	case "binary":
		q.Scenario = trajcover.Binary
	case "pointcount":
		q.Scenario = trajcover.PointCount
	case "length":
		q.Scenario = trajcover.Length
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}

	idx, err := trajcover.NewIndex(users, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "indexed into %d shard(s) (%s): sizes %v\n", idx.NumShards(), *partition, idx.ShardSizes())

	switch *queryKind {
	case "topk":
		res, err := idx.TopK(routes, *k, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "top-%d facilities by %s service (psi %.0f):\n", *k, *scenario, *psi)
		for i, r := range res {
			fmt.Fprintf(w, "%3d. route %-6d service %.4f\n", i+1, r.Facility.ID, r.Service)
		}
	case "maxcov":
		copts := trajcover.CoverageOptions{}
		switch *alg {
		case "twostep":
			copts.Algorithm = trajcover.TwoStepGreedy
		case "greedy":
			copts.Algorithm = trajcover.FullGreedy
		case "genetic":
			copts.Algorithm = trajcover.Genetic
		case "exact":
			copts.Algorithm = trajcover.Exact
		default:
			return fmt.Errorf("unknown algorithm %q", *alg)
		}
		res, err := idx.MaxCoverage(routes, *k, q, copts)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "max-%d-coverage (%s, psi %.0f): combined service %.4f, users served %d\n",
			*k, *alg, *psi, res.Value, res.UsersServed)
		for i, f := range res.Facilities {
			fmt.Fprintf(w, "%3d. route %d\n", i+1, f.ID)
		}
	case "service":
		if *facility < 0 {
			return fmt.Errorf("query=service needs -facility")
		}
		var target *trajcover.Facility
		for _, f := range routes {
			if int(f.ID) == *facility {
				target = f
			}
		}
		if target == nil {
			return fmt.Errorf("facility %d not found", *facility)
		}
		v, err := idx.ServiceValue(target, q)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "service value of route %d: %.4f\n", target.ID, v)
	default:
		return fmt.Errorf("unknown query %q", *queryKind)
	}
	return nil
}

func loadUsers(path string) ([]*trajcover.Trajectory, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trajectory.ReadCSV(f)
}

func loadRoutes(path string) ([]*trajcover.Facility, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trajectory.ReadFacilitiesCSV(f)
}
