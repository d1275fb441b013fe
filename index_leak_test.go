package trajcover

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeleteReleasesTrajectories: a trajectory deleted from a mutable
// Index is unreachable from it — not through the tail slot a list delete
// shifts past, an emptied bucket, the half a bucket split moved away, a
// drained leaf, or the build's shared entry slab that a list grown by an
// Insert has left. A quarter of the corpus stays indexed while the rest
// is deleted, so the lists those stale copies would hide in stay alive;
// then the quarter goes too. Every deleted trajectory's finalizer must
// run.
func TestDeleteReleasesTrajectories(t *testing.T) {
	for _, o := range []Ordering{BasicOrdering, ZOrdering} {
		t.Run(o.String(), func(t *testing.T) {
			const n, built = 2000, 1500
			var freed atomic.Int64
			users := TaxiTrips(NewYorkCity(), n, 77)
			for _, u := range users {
				runtime.SetFinalizer(u, func(*Trajectory) { freed.Add(1) })
			}
			idx, err := NewIndex(users[:built], IndexOptions{Ordering: o, Beta: 8})
			if err != nil {
				t.Fatal(err)
			}
			var keep, drop []*Trajectory
			for i, u := range users {
				if i%4 == 0 {
					keep = append(keep, u)
				} else {
					drop = append(drop, u)
				}
			}
			del := func(us []*Trajectory) {
				for _, u := range us {
					if !idx.Delete(u) {
						t.Fatalf("Delete(%d) found nothing", u.ID)
					}
				}
			}
			// Deletes before the Inserts leave lists shorter than their
			// windows on the build's slab, so Inserts fill those windows
			// before they grow out of them.
			del(drop[:built/2])
			for _, u := range users[built:] {
				if err := idx.Insert(u); err != nil {
					t.Fatal(err)
				}
			}
			del(drop[built/2:])
			users, drop = nil, nil
			awaitFreed(t, &freed, n-int64(len(keep)))
			if idx.Len() != len(keep) {
				t.Fatalf("Len %d, want %d", idx.Len(), len(keep))
			}
			del(keep)
			keep = nil
			awaitFreed(t, &freed, n)
			runtime.KeepAlive(idx)
		})
	}
}

func awaitFreed(t *testing.T, freed *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for freed.Load() < want && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := freed.Load(); got != want {
		t.Fatalf("%d of %d deleted trajectories collected", got, want)
	}
}
