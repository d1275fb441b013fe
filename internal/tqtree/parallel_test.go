package tqtree

import (
	"fmt"
	"testing"

	"github.com/trajcover/trajcover/internal/service"
)

// flattenTree collects every node of the tree in DFS order as a
// structural fingerprint: rect, depth, leaf flag, bounds, and the exact
// entry sequence of its list.
type nodeFingerprint struct {
	rect    string
	depth   int
	leaf    bool
	ownUB   [service.NumScenarios]float64
	treeUB  [service.NumScenarios]float64
	entries []string
}

func flattenTree(t *Tree) []nodeFingerprint {
	var out []nodeFingerprint
	t.Root().Walk(func(n *Node) {
		fp := nodeFingerprint{
			rect:   fmt.Sprint(n.rect),
			depth:  n.depth,
			leaf:   n.leaf,
			ownUB:  n.ownUB,
			treeUB: n.treeUB,
		}
		n.list.forEach(func(e *Entry) bool {
			fp.entries = append(fp.entries, fmt.Sprintf("%d/%d/%d/%d",
				e.Traj.ID, e.SegIdx, e.startCode, e.endCode))
			return true
		})
		out = append(out, fp)
	})
	return out
}

func assertTreesIdentical(t *testing.T, serial, parallel *Tree) {
	t.Helper()
	if serial.Stats() != parallel.Stats() {
		t.Fatalf("stats differ: serial %+v, parallel %+v", serial.Stats(), parallel.Stats())
	}
	sf, pf := flattenTree(serial), flattenTree(parallel)
	if len(sf) != len(pf) {
		t.Fatalf("node counts differ: %d vs %d", len(sf), len(pf))
	}
	for i := range sf {
		if sf[i].rect != pf[i].rect || sf[i].depth != pf[i].depth || sf[i].leaf != pf[i].leaf {
			t.Fatalf("node %d shape differs: %+v vs %+v", i, sf[i], pf[i])
		}
		if sf[i].ownUB != pf[i].ownUB || sf[i].treeUB != pf[i].treeUB {
			t.Fatalf("node %d bounds differ: own %v/%v tree %v/%v",
				i, sf[i].ownUB, pf[i].ownUB, sf[i].treeUB, pf[i].treeUB)
		}
		if len(sf[i].entries) != len(pf[i].entries) {
			t.Fatalf("node %d entry counts differ: %d vs %d",
				i, len(sf[i].entries), len(pf[i].entries))
		}
		for j := range sf[i].entries {
			if sf[i].entries[j] != pf[i].entries[j] {
				t.Fatalf("node %d entry %d differs: %s vs %s",
					i, j, sf[i].entries[j], pf[i].entries[j])
			}
		}
	}
}

// TestParallelBuildMatchesSerial verifies the headline guarantee of the
// parallel construction: for every variant and ordering, Parallelism > 1
// produces a tree byte-identical to the serial build (same structure,
// same entry order, same upper bounds), and a frozen index column for
// column the serial one. Run with -race to also exercise the goroutine
// fan-out for data races.
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
				serial, err := Build(users, serialOpts)
				if err != nil {
					t.Fatal(err)
				}
				parOpts := base
				parOpts.Parallelism = 8
				parallel, err := Build(users, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				if err := parallel.CheckInvariants(); err != nil {
					t.Fatalf("parallel tree invariants: %v", err)
				}
				assertTreesIdentical(t, serial, parallel)
				serialFz, err := BuildFrozen(users, serialOpts)
				if err != nil {
					t.Fatal(err)
				}
				parFz, err := BuildFrozen(users, parOpts)
				if err != nil {
					t.Fatal(err)
				}
				assertFrozenEqual(t, name, parFz, serialFz)
			})
		}
	}
}

// TestParallelBuildSmallCutoff drives the goroutine path even on small
// inputs by lowering beta so subtree slices stay above the leaf threshold
// while the default cutoff would suppress fan-out; it guards the slot
// accounting under -race with many concurrent builds.
func TestParallelBuildConcurrentBuilds(t *testing.T) {
	users := randTrajectories(4000, 2, 98, testBounds)
	done := make(chan *Tree, 4)
	for i := 0; i < 4; i++ {
		go func() {
			tree, err := Build(users, Options{
				Variant: TwoPoint, Ordering: ZOrder,
				Beta: 16, Bounds: testBounds, Parallelism: 4,
			})
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- tree
		}()
	}
	var first *Tree
	for i := 0; i < 4; i++ {
		tree := <-done
		if tree == nil {
			t.Fatal("build failed")
		}
		if first == nil {
			first = tree
			continue
		}
		assertTreesIdentical(t, first, tree)
	}
}

// BenchmarkBuild compares serial and parallel construction at a
// fig7-scale entry count. On a multi-core host the parallel build should
// be >= 2x faster; on a single core it must not be slower than serial
// beyond noise (the fan-out is gated on available slots).
func BenchmarkBuild(b *testing.B) {
	users := randTrajectories(200000, 2, 99, testBounds)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism-%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(users, Options{
					Variant: TwoPoint, Ordering: ZOrder,
					Bounds: testBounds, Parallelism: par,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
