package api

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// cached is one materialised response.
type cached struct {
	status int
	body   []byte
	// volatile marks a response that must not be cached because it
	// embeds live process state (/v1/stats carries uptime and RSS);
	// singleflight still coalesces concurrent misses.
	volatile bool
}

// cacheShard is one lock domain of the response cache: an LRU list plus
// its lookup map under a single mutex. Hits and misses both touch only
// this shard's lock, so concurrent requests for different keys contend
// only 1/shards of the time.
type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key string
	val cached
}

// shardedCache is a power-of-two-sharded LRU keyed by request key. Each
// served index generation is immutable, so entries never expire on
// their own — they fall off the cold end under capacity pressure, or
// are removed by sweep when a Publish invalidates the keys a delta
// touched. gen fences stale fills: a fill that began against an older
// index generation is rejected rather than resurrecting a swept key.
type shardedCache struct {
	shards []*cacheShard
	mask   uint64
	gen    atomic.Uint64
}

// cacheShards is the server's response-cache shard count.
const cacheShards = 16

// newCache builds a cache holding ~entries responses across shards
// (shards is rounded up to a power of two).
func newCache(entries, shards int) *shardedCache {
	if shards < 1 {
		shards = 1
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	per := entries / n
	if per < 1 {
		per = 1
	}
	c := &shardedCache{shards: make([]*cacheShard, n), mask: uint64(n - 1)}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   per,
			ll:    list.New(),
			items: make(map[string]*list.Element),
		}
	}
	return c
}

// fnv64a hashes a key for shard selection (inline to avoid the
// hash/fnv allocation on the hot path). It takes the key as a string
// (put) or as the bytes a request built it in (get), with one result.
func fnv64a[T string | []byte](key T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// get returns the response cached under key and promotes it to
// most-recent. key is not retained, and the lookup does not copy it.
func (c *shardedCache) get(key []byte) (cached, bool) {
	s := c.shards[fnv64a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[string(key)]
	if !ok {
		return cached{}, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// generation returns the fence a fill must present to put. Read it
// before resolving the index the response is computed from.
func (c *shardedCache) generation() uint64 { return c.gen.Load() }

// put inserts (or refreshes) a response, evicting the coldest entry of
// the shard when full. gen is the generation observed when the fill
// began: if an invalidation bumped it since, the value may describe a
// replaced index and is dropped. The check happens under the shard
// lock, so it cannot race a concurrent sweep of the same key.
func (c *shardedCache) put(key string, val cached, gen uint64) {
	s := c.shards[fnv64a(key)&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.gen.Load() != gen {
		return
	}
	if el, ok := s.items[key]; ok {
		el.Value.(*lruEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		if back := s.ll.Back(); back != nil {
			s.ll.Remove(back)
			delete(s.items, back.Value.(*lruEntry).key)
		}
	}
	s.items[key] = s.ll.PushFront(&lruEntry{key: key, val: val})
}

// sweep bumps the generation (fencing off in-flight fills that started
// against the previous index) and removes every resident entry the
// match function selects, returning how many were dropped.
func (c *shardedCache) sweep(match func(key string) bool) int {
	c.gen.Add(1)
	dropped := 0
	for _, s := range c.shards {
		s.mu.Lock()
		var doomed []*list.Element
		for key, el := range s.items {
			if match(key) {
				doomed = append(doomed, el)
			}
		}
		for _, el := range doomed {
			s.ll.Remove(el)
			delete(s.items, el.Value.(*lruEntry).key)
			dropped++
		}
		s.mu.Unlock()
	}
	return dropped
}
