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
//	tqquery -users trips.csv -routes routes.csv -query topk -frozen
//	tqquery -users trips.csv -routes routes.csv -query topk -churn 500
//
// The query runs on an Index (writes safe concurrently with queries), or
// on its frozen form under -frozen. -churn N runs N insert/delete
// operations on the Index concurrently with the query, which is repeated
// until the writer finishes, and reports the query latency distribution
// plus the background swaps that completed mid-run.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"sync/atomic"
	"time"

	trajcover "github.com/trajcover/trajcover"
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
		frozen     = fs.Bool("frozen", false, "serve from the frozen columnar index (faster reads, immutable)")
		churn      = fs.Int("churn", 0, "run this many concurrent insert/delete ops while the query repeats, and report latency quantiles (not with -frozen)")
		churnDelta = fs.Int("churn-maxdelta", 64, "with -churn: background rebuild threshold (pending writes per shard)")
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
	switch *partition {
	case "hash":
		opts.Partitioner = trajcover.HashPartitioner()
	case "grid":
		opts.Partitioner = trajcover.GridPartitioner()
	default:
		return fmt.Errorf("unknown partitioner %q", *partition)
	}
	opts.Shards = *shards
	opts.Policy = trajcover.LivePolicy{MaxDelta: *churnDelta, MaxDeltaFraction: -1}
	if *churn > 0 && *frozen {
		return fmt.Errorf("-churn writes to the index; -frozen cannot take writes")
	}

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

	// Both index types answer every query kind.
	var idx interface {
		TopK([]*trajcover.Facility, int, trajcover.Query) ([]trajcover.Ranked, error)
		ServiceValue(*trajcover.Facility, trajcover.Query) (float64, error)
		MaxCoverage([]*trajcover.Facility, int, trajcover.Query, trajcover.CoverageOptions) (trajcover.CoverageResult, error)
	}
	index, err := trajcover.NewIndex(users, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "indexed into %d shard(s) (%s): sizes %v\n", index.NumShards(), *partition, index.ShardSizes())
	idx = index
	if *frozen {
		fidx, err := index.Freeze()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "serving from the frozen columnar index")
		idx = fidx
	}

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
		if *churn > 0 {
			return runChurn(w, index, users, *churn, func() error {
				_, err := idx.TopK(routes, *k, q)
				return err
			})
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
		if *churn > 0 {
			return runChurn(w, index, users, *churn, func() error {
				_, err := idx.ServiceValue(target, q)
				return err
			})
		}
	default:
		return fmt.Errorf("unknown query %q", *queryKind)
	}
	return nil
}

// runChurn exercises concurrent writes against the index: a writer
// applies `ops` insert/delete operations (70% inserts of perturbed
// copies of loaded trajectories under fresh IDs, 30% deletes of those
// copies) while the query repeats, then reports the query latency
// distribution and how many background epoch swaps completed mid-run.
func runChurn(w io.Writer, lv *trajcover.Index, users []*trajcover.Trajectory, ops int, query func() error) error {
	maxID := trajcover.ID(0)
	for _, u := range users {
		if u.ID > maxID {
			maxID = u.ID
		}
	}
	startSwaps := uint64(0)
	for _, st := range lv.Stats() {
		startSwaps += st.Compactions
	}

	writeErr := make(chan error, 1)
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		rng := rand.New(rand.NewSource(1))
		var inserted []trajcover.ID
		nextID := maxID
		for i := 0; i < ops; i++ {
			if rng.Float64() < 0.7 || len(inserted) == 0 {
				src := users[rng.Intn(len(users))]
				pts := make([]trajcover.Point, len(src.Points))
				for j, p := range src.Points {
					pts[j] = trajcover.Pt(p.X+rng.NormFloat64()*10, p.Y+rng.NormFloat64()*10)
				}
				nextID++
				u, err := trajcover.NewTrajectory(nextID, pts)
				if err != nil {
					writeErr <- err
					return
				}
				if err := lv.Insert(u); err != nil {
					writeErr <- err
					return
				}
				inserted = append(inserted, u.ID)
			} else {
				j := rng.Intn(len(inserted))
				lv.Delete(inserted[j])
				inserted[j] = inserted[len(inserted)-1]
				inserted = inserted[:len(inserted)-1]
			}
		}
		writeErr <- nil
	}()

	var latencies []float64
	for first := true; first || !done.Load(); first = false {
		start := time.Now()
		if err := query(); err != nil {
			return err
		}
		latencies = append(latencies, time.Since(start).Seconds())
	}
	if err := <-writeErr; err != nil {
		return err
	}
	// Drain in-flight background rebuilds before reading the error and
	// the swap count: the last trigger may still be folding when the
	// writer exits, and its failure (or its swap) must not be missed. A
	// rebuild at CLI scale completes well within the settle window; the
	// stability loop then catches a follow-up trigger chain.
	swapsOf := func() uint64 {
		n := uint64(0)
		for _, st := range lv.Stats() {
			n += st.Compactions
		}
		return n
	}
	time.Sleep(500 * time.Millisecond)
	settled := swapsOf()
	for deadline := time.Now().Add(3 * time.Second); time.Now().Before(deadline); {
		time.Sleep(100 * time.Millisecond)
		next := swapsOf()
		if next == settled {
			break
		}
		settled = next
	}
	if err := lv.Err(); err != nil {
		return fmt.Errorf("background rebuild: %w", err)
	}
	sort.Float64s(latencies)
	endSwaps := swapsOf()
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		return latencies[int(q*float64(len(latencies)-1))]
	}
	fmt.Fprintf(w, "churn: %d writes concurrent with %d queries; query p50 %.6fs p99 %.6fs; background swaps %d; final corpus %d\n",
		ops, len(latencies), pct(0.50), pct(0.99), endSwaps-startSwaps, lv.Len())
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
