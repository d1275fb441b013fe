package trajcover_test

import (
	"fmt"
	"log"

	trajcover "github.com/trajcover/trajcover"
)

// Three commuters: two share a corridor served by route 1; the third
// lives near route 2's stops.
func exampleWorkload() ([]*trajcover.Trajectory, []*trajcover.Facility) {
	mustT := func(id trajcover.ID, pts ...trajcover.Point) *trajcover.Trajectory {
		t, err := trajcover.NewTrajectory(id, pts)
		if err != nil {
			log.Fatal(err)
		}
		return t
	}
	mustF := func(id trajcover.ID, pts ...trajcover.Point) *trajcover.Facility {
		f, err := trajcover.NewFacility(id, pts)
		if err != nil {
			log.Fatal(err)
		}
		return f
	}
	users := []*trajcover.Trajectory{
		mustT(1, trajcover.Pt(0, 0), trajcover.Pt(100, 0)),
		mustT(2, trajcover.Pt(5, 5), trajcover.Pt(95, 5)),
		mustT(3, trajcover.Pt(0, 100), trajcover.Pt(100, 100)),
	}
	routes := []*trajcover.Facility{
		mustF(1, trajcover.Pt(0, 2), trajcover.Pt(50, 2), trajcover.Pt(100, 2)),
		mustF(2, trajcover.Pt(0, 98), trajcover.Pt(100, 98)),
	}
	return users, routes
}

// ExampleIndex_TopK ranks candidate routes by how many commuters they
// serve end to end (Binary service, ψ = 10).
func ExampleIndex_TopK() {
	users, routes := exampleWorkload()
	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	top, err := idx.TopK(routes, 2, trajcover.Query{Scenario: trajcover.Binary, Psi: 10})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range top {
		fmt.Printf("route %d serves %.0f commuters\n", r.Facility.ID, r.Service)
	}
	// Output:
	// route 1 serves 2 commuters
	// route 2 serves 1 commuters
}

// ExampleIndex_MaxCoverage picks the route pair with the best combined
// coverage — both routes together serve all three commuters.
func ExampleIndex_MaxCoverage() {
	users, routes := exampleWorkload()
	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := idx.MaxCoverage(routes, 2,
		trajcover.Query{Scenario: trajcover.Binary, Psi: 10},
		trajcover.CoverageOptions{Algorithm: trajcover.Exact})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d users served by %d routes\n", res.UsersServed, len(res.Facilities))
	// Output:
	// 3 users served by 2 routes
}

// ExampleIndex_TopKParallel answers the same kMaxRRST query as TopK with
// the facilities' exact evaluations on a pool of workers — identical
// results, scaled across cores (workers <= 0 uses GOMAXPROCS).
func ExampleIndex_TopKParallel() {
	users, routes := exampleWorkload()
	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	top, err := idx.TopKParallel(routes, 2, trajcover.Query{Scenario: trajcover.Binary, Psi: 10}, 4)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range top {
		fmt.Printf("route %d serves %.0f commuters\n", r.Facility.ID, r.Service)
	}
	// Output:
	// route 1 serves 2 commuters
	// route 2 serves 1 commuters
}

// Example_shardedIndex partitions commuters across several TQ-trees and
// answers the same query by scatter-gather — the serving shape for
// datasets too large for one tree. Results match the single-tree index.
func Example_shardedIndex() {
	users, routes := exampleWorkload()
	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{
		Shards:      2,
		Partitioner: trajcover.HashPartitioner(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d commuters across %d shards\n", idx.Len(), idx.NumShards())
	top, err := idx.TopK(routes, 2, trajcover.Query{Scenario: trajcover.Binary, Psi: 10})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range top {
		fmt.Printf("route %d serves %.0f commuters\n", r.Facility.ID, r.Service)
	}
	// Output:
	// 3 commuters across 2 shards
	// route 1 serves 2 commuters
	// route 2 serves 1 commuters
}

// ExampleIndex_ServedUsers lists exactly which commuters a route serves.
func ExampleIndex_ServedUsers() {
	users, routes := exampleWorkload()
	idx, err := trajcover.NewIndex(users, trajcover.IndexOptions{})
	if err != nil {
		log.Fatal(err)
	}
	served, err := idx.ServedUsers(routes[0], trajcover.Query{Scenario: trajcover.Binary, Psi: 10})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range served {
		fmt.Printf("user %d (service %.0f)\n", s.User, s.Value)
	}
	// Output:
	// user 1 (service 1)
	// user 2 (service 1)
}
