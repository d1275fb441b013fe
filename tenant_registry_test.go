package trajcover

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func testRegistryOptions(root string) TenantRegistryOptions {
	return TenantRegistryOptions{
		Root: root,
		WAL:  WALOptions{Sync: WALSyncAlways, SegmentBytes: 1 << 15},
		Index: IndexOptions{
			Ordering:    ZOrdering,
			Policy:      LivePolicy{MaxDelta: 64},
			Shards:      2,
			Partitioner: HashPartitioner(),
		},
	}
}

func registryWorkload(seed int64) ([]*Trajectory, []*Facility) {
	city := NewYorkCity()
	return TaxiTrips(city, 120, seed), BusRoutes(city, 6, 8, seed+1)
}

func TestTenantRegistryLazyCreateAndRecover(t *testing.T) {
	root := t.TempDir()
	reg, err := OpenTenantRegistry(testRegistryOptions(root))
	if err != nil {
		t.Fatal(err)
	}

	// Reads never create tenants.
	if _, _, err := reg.Acquire("ghost", false); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("read of unknown tenant: %v", err)
	}
	if dirExists(filepath.Join(root, "ghost")) {
		t.Fatal("read created a tenant directory")
	}

	// Invalid IDs are client errors and leave no trace.
	for _, id := range []string{"", "../evil", "a/b", ".."} {
		if _, _, err := reg.Acquire(id, true); !IsBadTenantID(err) {
			t.Fatalf("Acquire(%q): %v", id, err)
		}
	}
	if ents, _ := os.ReadDir(root); len(ents) != 0 {
		t.Fatalf("invalid acquires left entries: %v", ents)
	}

	// A write lazily creates the tenant with its own WAL directory.
	users, routes := registryWorkload(41)
	idx, release, err := reg.Acquire("acme", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if err := idx.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Scenario: Binary, Psi: DefaultPsi}
	want, err := idx.ServiceValues(routes, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	release()
	if !dirExists(filepath.Join(root, "acme")) {
		t.Fatal("tenant directory missing")
	}
	if got := reg.Tenants(); !reflect.DeepEqual(got, []string{"acme"}) {
		t.Fatalf("Tenants() = %v", got)
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh registry over the same root recovers the tenant from its
	// own WAL lineage.
	reg2, err := OpenTenantRegistry(testRegistryOptions(root))
	if err != nil {
		t.Fatal(err)
	}
	defer reg2.Close()
	idx2, release2, err := reg2.Acquire("acme", false)
	if err != nil {
		t.Fatalf("reopen acme: %v", err)
	}
	defer release2()
	got, err := idx2.ServiceValues(routes, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered answers differ: %v vs %v", got, want)
	}
	if st := reg2.Stats(); st.Reopened != 1 || st.Created != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTenantRegistryEviction(t *testing.T) {
	root := t.TempDir()
	opts := testRegistryOptions(root)
	opts.MaxOpen = 1
	reg, err := OpenTenantRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	users, routes := registryWorkload(43)
	q := Query{Scenario: Binary, Psi: DefaultPsi}

	// Populate tenant a, release it (idle), then open tenant b: a must
	// be checkpointed + evicted to honor MaxOpen.
	ia, rel, err := reg.Acquire("a", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users[:60] {
		if err := ia.Insert(u); err != nil {
			t.Fatal(err)
		}
	}
	want, err := ia.ServiceValues(routes, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	rel()

	if _, relB, err := reg.Acquire("b", true); err != nil {
		t.Fatal(err)
	} else {
		defer relB()
	}
	st := reg.Stats()
	if st.Evicted != 1 || st.Open != 1 {
		t.Fatalf("after opening b: stats %+v", st)
	}

	// Accessing a again reopens it from disk with answers intact. b is
	// held (refs > 0), so it survives even though the cap is exceeded
	// while both are in use.
	ia2, rel2, err := reg.Acquire("a", false)
	if err != nil {
		t.Fatalf("reopen evicted tenant: %v", err)
	}
	got, err := ia2.ServiceValues(routes, q, 2)
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("evicted tenant lost state: %v vs %v", got, want)
	}
	if st := reg.Stats(); st.Reopened != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestTenantRegistryBindPinned(t *testing.T) {
	opts := testRegistryOptions(t.TempDir())
	opts.MaxOpen = 1
	reg, err := OpenTenantRegistry(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()

	users, _ := registryWorkload(47)
	def, err := NewIndex(users[:30], IndexOptions{
		Ordering:    ZOrdering,
		Shards:      2,
		Partitioner: HashPartitioner(),
		Policy:      LivePolicy{MaxDelta: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.Bind(TenantDefault, def); err != nil {
		t.Fatal(err)
	}
	if err := reg.Bind(TenantDefault, def); err == nil {
		t.Fatal("duplicate Bind accepted")
	}
	if err := reg.Bind("../x", def); !IsBadTenantID(err) {
		t.Fatalf("Bind bad id: %v", err)
	}

	// The pinned default is never evicted, even past MaxOpen.
	if _, rel, err := reg.Acquire("other", true); err != nil {
		t.Fatal(err)
	} else {
		rel()
	}
	got, rel, err := reg.Acquire(TenantDefault, false)
	if err != nil {
		t.Fatalf("default after eviction pressure: %v", err)
	}
	if got != def {
		t.Fatal("default tenant is not the bound index")
	}
	rel()
	// Eviction pressure lands on the idle durable tenant, never the
	// pinned default — which must still be the same live instance after
	// the cap has been enforced repeatedly.
	for i := 0; i < 3; i++ {
		idx, rel2, err := reg.Acquire("other", false)
		if err != nil {
			t.Fatalf("reopen other: %v", err)
		}
		_ = idx
		rel2()
		d, rel3, err := reg.Acquire(TenantDefault, false)
		if err != nil {
			t.Fatal(err)
		}
		if d != def {
			t.Fatal("pinned default was evicted and rebuilt")
		}
		rel3()
	}
}

func TestTenantRegistryInMemory(t *testing.T) {
	reg, err := OpenTenantRegistry(TenantRegistryOptions{
		Index: IndexOptions{
			Ordering:    ZOrdering,
			Shards:      1,
			Partitioner: HashPartitioner(),
			Policy:      LivePolicy{MaxDelta: 64},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	idx, rel, err := reg.Acquire("mem", true)
	if err != nil {
		t.Fatal(err)
	}
	users, _ := registryWorkload(53)
	if err := idx.Insert(users[0]); err != nil {
		t.Fatal(err)
	}
	rel()
	// No WAL: checkpoints are meaningless and must fail loudly.
	if err := reg.Checkpoint("mem"); err == nil {
		t.Fatal("checkpoint of in-memory tenant succeeded")
	}
}
