package rescache

import (
	"fmt"
	"sync"
	"testing"
)

func keyOf(i int, tenant string, version uint64) Key {
	var k Key
	copy(k.Hash[:], fmt.Sprintf("key-%05d", i))
	k.Tenant, k.Version = tenant, version
	return k
}

func TestGetPutBasics(t *testing.T) {
	c := New(1 << 20)
	k := keyOf(1, "default", 7)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, []byte("answer"))
	got, ok := c.Get(k)
	if !ok || string(got) != "answer" {
		t.Fatalf("Get = %q, %v", got, ok)
	}
	// Same hash at another version is a distinct key.
	if _, ok := c.Get(keyOf(1, "default", 8)); ok {
		t.Fatal("version is not part of the key")
	}
	// Same hash for another tenant is a distinct key.
	if _, ok := c.Get(keyOf(1, "other", 7)); ok {
		t.Fatal("tenant is not part of the key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutRefreshesValue(t *testing.T) {
	c := New(1 << 20)
	k := keyOf(1, "default", 1)
	c.Put(k, []byte("old"))
	c.Put(k, []byte("new"))
	got, _ := c.Get(k)
	if string(got) != "new" {
		t.Fatalf("Get = %q after refresh", got)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("refresh duplicated the entry: %+v", st)
	}
}

func TestEvictionBounded(t *testing.T) {
	const max = 64 << 10
	c := New(max)
	val := make([]byte, 1024)
	for i := 0; i < 1000; i++ {
		c.Put(keyOf(i, "default", 1), val)
	}
	st := c.Stats()
	if st.Bytes > max {
		t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, max)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions despite overflow")
	}
	if st.Entries == 0 {
		t.Fatal("eviction emptied the cache")
	}
}

func TestLRUOrder(t *testing.T) {
	// Budget for ~4 entries per shard; pin every key to one shard by
	// fixing Hash[0] and varying the tail.
	c := New(16 * 4 * (1024 + entryOverhead))
	mk := func(i int) Key {
		var k Key
		k.Hash[0] = 0
		copy(k.Hash[1:], fmt.Sprintf("k%05d", i))
		return k
	}
	val := make([]byte, 1024)
	for i := 0; i < 4; i++ {
		c.Put(mk(i), val)
	}
	// Touch entry 0 so it is most recent; inserting two more must evict
	// 1 and 2, never 0.
	if _, ok := c.Get(mk(0)); !ok {
		t.Fatal("entry 0 missing before overflow")
	}
	c.Put(mk(4), val)
	c.Put(mk(5), val)
	if _, ok := c.Get(mk(0)); !ok {
		t.Fatal("LRU evicted the most recently used entry")
	}
	if _, ok := c.Get(mk(1)); ok {
		t.Fatal("LRU kept the least recently used entry")
	}
}

func TestOversizedValueNotCached(t *testing.T) {
	c := New(1024)
	k := keyOf(1, "default", 1)
	c.Put(k, make([]byte, 1<<20))
	if _, ok := c.Get(k); ok {
		t.Fatal("value larger than the budget was cached")
	}
}

func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *Cache
	k := keyOf(1, "default", 1)
	c.Put(k, []byte("x"))
	if _, ok := c.Get(k); ok {
		t.Fatal("nil cache returned a hit")
	}
	if st := c.Stats(); st != (Snapshot{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	if New(0) != nil {
		t.Fatal("New(0) should be the nil always-miss cache")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(256 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := keyOf(i%64, "default", uint64(g%4))
				if v, ok := c.Get(k); ok && len(v) != 32 {
					t.Errorf("corrupt value length %d", len(v))
					return
				}
				c.Put(k, make([]byte, 32))
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses == 0 {
		t.Fatal("no traffic recorded")
	}
}

// TestAliasCountedApart pins what /statsz's hits and misses mean: an
// alias lookup moves only the alias counters, while its entry lives in
// the same LRU under the same byte budget as any answer.
func TestAliasCountedApart(t *testing.T) {
	c := New(1 << 20)
	alias := keyOf(1, "", 0)
	if _, ok := c.GetAlias(alias); ok {
		t.Fatal("alias hit on empty cache")
	}
	c.Put(alias, []byte("points at an answer"))
	if got, ok := c.GetAlias(alias); !ok || string(got) != "points at an answer" {
		t.Fatalf("GetAlias = %q, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 0 || st.AliasHits != 1 || st.AliasMisses != 1 {
		t.Fatalf("stats = %+v, want only the alias counters moved", st)
	}
	if want := int64(len("points at an answer")) + entryOverhead; st.Entries != 1 || st.Bytes != want {
		t.Fatalf("alias entry not charged to the budget: %+v, want 1 entry, %d bytes", st, want)
	}
	var nilCache *Cache
	if _, ok := nilCache.GetAlias(alias); ok {
		t.Fatal("nil cache hit")
	}
}
