package trajcover

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestDeleteReleasesTrajectories: a trajectory deleted from an Index is
// unreachable from it. A built one never was reachable — the base copies
// points into its table — and an inserted one lives in the delta overlay
// only until its delete (or a background rebuild) drops it, not in a
// stale slot of a rewritten overlay. A quarter of the corpus stays
// indexed while the rest is deleted, so the index stays alive; then the
// quarter goes too. Every deleted trajectory's finalizer must run.
func TestDeleteReleasesTrajectories(t *testing.T) {
	for _, o := range []Ordering{BasicOrdering, ZOrdering} {
		t.Run(o.String(), func(t *testing.T) {
			const n, built = 2000, 1500
			var freed atomic.Int64
			users := TaxiTrips(NewYorkCity(), n, 77)
			for i, u := range users {
				// A finalizer needs an object of its own: a generated
				// corpus shares one header slab and one arena.
				users[i] = &Trajectory{ID: u.ID, Points: slices.Clone(u.Points)}
				runtime.SetFinalizer(users[i], func(*Trajectory) { freed.Add(1) })
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
					if ok, err := idx.Delete(u.ID); err != nil || !ok {
						t.Fatalf("Delete(%d) = %v, %v", u.ID, ok, err)
					}
				}
			}
			// Deletes before the Inserts tombstone base trajectories;
			// deletes after them drop overlay ones too.
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
