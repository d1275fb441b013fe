package trajcover

// Shutdown goroutine-hygiene coverage for the registry: the LRU
// eviction path (checkpoint + close of idle tenants) racing concurrent
// Bind and Acquire traffic must neither deadlock nor leave index
// goroutines behind once the registry closes.

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// awaitGoroutines polls until the goroutine count settles at or below
// baseline plus slack, dumping stacks on timeout.
func awaitGoroutines(t *testing.T, baseline, slack int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTenantRegistryEvictionConcurrentBindNoLeak hammers a MaxOpen=2
// registry with concurrent writers cycling through many durable tenants
// (forcing constant LRU checkpoint-and-evict) while another goroutine
// keeps Bind-ing pinned in-memory tenants. Afterward the registry must
// close cleanly with every tenant's goroutines gone and the pinned
// tenants never evicted.
func TestTenantRegistryEvictionConcurrentBindNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	users, _ := registryWorkload(61)

	opts := testRegistryOptions(t.TempDir())
	opts.MaxOpen = 2
	reg, err := OpenTenantRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	const tenantsPerWriter = 6
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := 0; i < tenantsPerWriter; i++ {
					id := fmt.Sprintf("w%d-t%d", w, i)
					idx, release, err := reg.Acquire(id, true)
					if err != nil {
						errc <- fmt.Errorf("acquire %s: %w", id, err)
						return
					}
					u := users[(w*tenantsPerWriter+i)%len(users)]
					if err := idx.Insert(u); err != nil && !errors.Is(err, ErrDuplicateID) {
						release()
						errc <- fmt.Errorf("insert %s: %w", id, err)
						return
					}
					release()
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			idx, err := NewIndex(users[:20], IndexOptions{
				Ordering:    ZOrdering,
				Shards:      2,
				Partitioner: HashPartitioner(),
				Policy:      LivePolicy{Manual: true},
			})
			if err != nil {
				errc <- err
				return
			}
			if err := reg.Bind(fmt.Sprintf("pin%d", i), idx); err != nil {
				errc <- fmt.Errorf("bind pin%d: %w", i, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	// Pinned tenants are exempt from MaxOpen: all ten must still be
	// open, and only durable tenants were evicted.
	st := reg.Stats()
	if st.Open < 10 {
		t.Fatalf("pinned tenants evicted: %+v", st)
	}
	if st.Evicted == 0 {
		t.Fatalf("MaxOpen=2 under %d tenants evicted nothing: %+v", writers*tenantsPerWriter, st)
	}
	for i := 0; i < 10; i++ {
		if _, release, err := reg.Acquire(fmt.Sprintf("pin%d", i), false); err != nil {
			t.Fatalf("pin%d gone after eviction churn: %v", i, err)
		} else {
			release()
		}
	}

	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, baseline, 2, 10*time.Second)
}
