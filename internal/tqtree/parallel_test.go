package tqtree

import (
	"fmt"
	"testing"

	"github.com/trajcover/trajcover/internal/datagen"
	"github.com/trajcover/trajcover/internal/geo"
	"github.com/trajcover/trajcover/internal/trajectory"
)

// TestParallelBuildMatchesSerial verifies the headline guarantee of the
// parallel construction: for every variant and ordering, Parallelism > 1
// produces an index column for column the serial build's (same structure,
// same entry order, same upper bounds) that holds every invariant. Run
// with -race to also exercise the goroutine fan-out for data races.
func TestParallelBuildMatchesSerial(t *testing.T) {
	users := randTrajectories(6000, 5, 97, testBounds)
	for _, variant := range []Variant{TwoPoint, Segmented, FullTrajectory} {
		for _, ordering := range []Ordering{Basic, ZOrder} {
			name := fmt.Sprintf("%v/%v", variant, ordering)
			t.Run(name, func(t *testing.T) {
				base := Options{
					Variant: variant, Ordering: ordering,
					Beta: 32, Bounds: testBounds,
				}
				serialOpts := base
				serialOpts.Parallelism = 1
				serial, err := BuildFrozen(users, serialOpts)
				if err != nil {
					t.Fatal(err)
				}
				parOpts := base
				parOpts.Parallelism = 8
				parallel, err := BuildFrozen(users, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkInvariants(parallel); err != nil {
					t.Fatalf("parallel build invariants: %v", err)
				}
				assertFrozenEqual(t, name, parallel, serial)
			})
		}
	}
}

// TestParallelBuildConcurrentBuilds runs four parallel builds at once,
// each over a corpus large enough to fan out; it guards the shared node
// list under -race, and every build must equal the first.
func TestParallelBuildConcurrentBuilds(t *testing.T) {
	users := randTrajectories(4000, 2, 98, testBounds)
	done := make(chan *Frozen, 4)
	for i := 0; i < 4; i++ {
		go func() {
			f, err := BuildFrozen(users, Options{
				Variant: TwoPoint, Ordering: ZOrder,
				Beta: 16, Bounds: testBounds, Parallelism: 4,
			})
			if err != nil {
				t.Error(err)
			}
			done <- f
		}()
	}
	var first *Frozen
	for i := 0; i < 4; i++ {
		f := <-done
		if f == nil {
			t.Fatal("build failed")
		}
		if first == nil {
			first = f
			continue
		}
		assertFrozenEqual(t, fmt.Sprintf("build %d", i), f, first)
	}
}

// BenchmarkBuild compares serial and parallel construction at a
// fig7-scale entry count. On a multi-core host the parallel build should
// be >= 2x faster; on a single core it must not be slower than serial
// beyond noise (the frontier is dealt to at most Parallelism goroutines
// by subtree size). The uniform
// corpus makes a shallow, even tree; the taxi one — a 178,570-trip
// shard of the paper's 357,139 NYC trips — the clustered, deep tree the
// served indexes are.
func BenchmarkBuild(b *testing.B) {
	corpora := []struct {
		name   string
		users  []*trajectory.Trajectory
		bounds geo.Rect
	}{
		{"uniform", randTrajectories(200000, 2, 99, testBounds), testBounds},
		{"taxi", datagen.TaxiTrips(datagen.NewYork(), 178570, 1), datagen.NewYork().Bounds},
	}
	for _, c := range corpora {
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/parallelism-%d", c.name, par), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := BuildFrozen(c.users, Options{
						Variant: TwoPoint, Ordering: ZOrder,
						Bounds: c.bounds, Parallelism: par,
					}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
