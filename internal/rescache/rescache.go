// Package rescache is a byte-bounded, sharded LRU for serialized query
// responses, keyed on (request hash, tenant, index version). The
// version component is the whole invalidation story: the serving layer
// bumps the index's monotone version counter on every acknowledged
// write and rebuild swap, so a key minted under version v can never be
// read once the corpus has moved past v — stale entries are not purged,
// they simply become unreachable and age out of the LRU. A writer that
// computes under version v re-reads the version before storing and
// skips the store if it moved, so an entry present in the cache always
// equals what the index would answer at that version.
package rescache

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// Key identifies one cacheable answer: the canonical request hash (the
// endpoint and every answer-affecting field — never workers or
// timeouts), the tenant whose corpus answered, and the index version
// the answer reflects.
type Key struct {
	Hash    [32]byte
	Tenant  string
	Version uint64
}

// entryOverhead approximates the per-entry bookkeeping bytes (key,
// list element, map slot) charged against the budget in addition to
// the value bytes, so a flood of tiny entries cannot blow the bound.
const entryOverhead = 128

const numShards = 16

type entry struct {
	key Key
	val []byte
}

type shard struct {
	mu    sync.Mutex
	lru   *list.List // front = most recent
	byKey map[Key]*list.Element
	bytes int64
}

// Cache is the sharded LRU. The zero value is unusable; construct with
// New. A nil *Cache is a valid always-miss cache, so callers can thread
// one unconditionally.
type Cache struct {
	shards   [numShards]shard
	maxShard int64 // per-shard byte budget

	hits        atomic.Uint64
	misses      atomic.Uint64
	aliasHits   atomic.Uint64
	aliasMisses atomic.Uint64
	evictions   atomic.Uint64
}

// New builds a cache bounded to roughly maxBytes across all shards.
// maxBytes <= 0 returns nil — the always-miss cache.
func New(maxBytes int64) *Cache {
	if maxBytes <= 0 {
		return nil
	}
	c := &Cache{maxShard: maxBytes / numShards}
	if c.maxShard < entryOverhead+1 {
		c.maxShard = entryOverhead + 1
	}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].byKey = make(map[Key]*list.Element)
	}
	return c
}

func (c *Cache) shardOf(k Key) *shard {
	return &c.shards[k.Hash[0]&(numShards-1)]
}

// Get returns the cached response for k, if present, and marks it most
// recently used. The returned slice is shared — callers must not
// mutate it.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.get(k, &c.hits, &c.misses)
}

// GetAlias is Get for an alias entry: a value that names the key an
// answer lives under (the serving layer maps a request's raw bytes to
// its canonical key this way) rather than an answer itself. Aliases
// share the shards, the byte budget and the LRU with answers — losing
// one costs its owner a recomputation of the key, never a wrong answer —
// but count under AliasHits/AliasMisses, so Hits/Misses keep meaning
// answers served and answers computed.
func (c *Cache) GetAlias(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	return c.get(k, &c.aliasHits, &c.aliasMisses)
}

func (c *Cache) get(k Key, hits, misses *atomic.Uint64) ([]byte, bool) {
	s := c.shardOf(k)
	s.mu.Lock()
	el, ok := s.byKey[k]
	if !ok {
		s.mu.Unlock()
		misses.Add(1)
		return nil, false
	}
	s.lru.MoveToFront(el)
	val := el.Value.(*entry).val
	s.mu.Unlock()
	hits.Add(1)
	return val, true
}

// Put stores v under k, evicting least-recently-used entries as needed
// to stay under the byte budget. Values larger than a shard's whole
// budget are not cached. Storing an existing key refreshes its value.
func (c *Cache) Put(k Key, v []byte) {
	if c == nil {
		return
	}
	cost := int64(len(v)) + entryOverhead
	if cost > c.maxShard {
		return
	}
	s := c.shardOf(k)
	s.mu.Lock()
	if el, ok := s.byKey[k]; ok {
		e := el.Value.(*entry)
		s.bytes += int64(len(v)) - int64(len(e.val))
		e.val = v
		s.lru.MoveToFront(el)
	} else {
		s.byKey[k] = s.lru.PushFront(&entry{key: k, val: v})
		s.bytes += cost
	}
	var evicted uint64
	for s.bytes > c.maxShard {
		el := s.lru.Back()
		if el == nil {
			break
		}
		e := el.Value.(*entry)
		s.lru.Remove(el)
		delete(s.byKey, e.key)
		s.bytes -= int64(len(e.val)) + entryOverhead
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Snapshot is the cache's observable state, served on /statsz.
type Snapshot struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	AliasHits   uint64 `json:"alias_hits"`
	AliasMisses uint64 `json:"alias_misses"`
	Evictions   uint64 `json:"evictions"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	MaxBytes    int64  `json:"max_bytes"`
}

// Stats snapshots the counters and current occupancy. Safe on nil (all
// zeros).
func (c *Cache) Stats() Snapshot {
	if c == nil {
		return Snapshot{}
	}
	st := Snapshot{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		AliasHits:   c.aliasHits.Load(),
		AliasMisses: c.aliasMisses.Load(),
		Evictions:   c.evictions.Load(),
		MaxBytes:    c.maxShard * numShards,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.lru.Len()
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}
