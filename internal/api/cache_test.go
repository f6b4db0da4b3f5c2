package api

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCacheLRUEviction(t *testing.T) {
	// One shard, capacity 2: deterministic eviction order.
	c := newCache(2, 1)
	body := func(s string) cached { return cached{status: http.StatusOK, body: []byte(s)} }
	c.put("a", body("A"), c.generation())
	c.put("b", body("B"), c.generation())
	// Touch "a" so "b" is the coldest, then overflow.
	if _, ok := c.get([]byte("a")); !ok {
		t.Fatal("a missing before eviction")
	}
	c.put("c", body("C"), c.generation())
	if _, ok := c.get([]byte("b")); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get([]byte(k)); !ok {
			t.Fatalf("%s missing after eviction", k)
		}
	}
	if resident(c) != 2 {
		t.Fatalf("len = %d, want 2", resident(c))
	}
	// Refreshing an existing key replaces the value without growing.
	c.put("a", body("A2"), c.generation())
	if v, _ := c.get([]byte("a")); string(v.body) != "A2" {
		t.Fatalf("refresh lost: %q", v.body)
	}
	if resident(c) != 2 {
		t.Fatalf("len after refresh = %d", resident(c))
	}
}

// resident counts c's entries across its shards.
func resident(c *shardedCache) int {
	n := 0
	for _, s := range c.shards {
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

func TestCacheShardRounding(t *testing.T) {
	c := newCache(100, 5) // rounds up to 8 shards
	if len(c.shards) != 8 || c.mask != 7 {
		t.Fatalf("shards = %d mask = %d", len(c.shards), c.mask)
	}
	// Tiny caches still hold at least one entry per shard.
	c = newCache(1, 16)
	for _, s := range c.shards {
		if s.cap != 1 {
			t.Fatalf("per-shard cap = %d", s.cap)
		}
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newCache(64, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("key-%d", i%100)
				if v, ok := c.get([]byte(k)); ok {
					if string(v.body) != k {
						t.Errorf("corrupt value for %s: %q", k, v.body)
						return
					}
				} else {
					c.put(k, cached{status: 200, body: []byte(k)}, c.generation())
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(10, 3)
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("burst token %d denied", i)
		}
	}
	if b.allow() {
		t.Fatal("allowed beyond burst")
	}
	// Simulate the passage of 150ms: at 10 tokens/s that refills 1.5
	// tokens — exactly one more request.
	b.mu.Lock()
	b.last = b.last.Add(-150 * time.Millisecond)
	b.mu.Unlock()
	if !b.allow() {
		t.Fatal("refilled token denied")
	}
	if b.allow() {
		t.Fatal("half a token should not admit")
	}

	// Refill never exceeds burst.
	b.mu.Lock()
	b.last = b.last.Add(-time.Hour)
	b.mu.Unlock()
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("post-idle token %d denied", i)
		}
	}
	if b.allow() {
		t.Fatal("burst cap not enforced after idle refill")
	}
}

func TestTokenBucketDefaults(t *testing.T) {
	if b := newTokenBucket(5, 0); b.burst != 5 {
		t.Fatalf("default burst = %v, want rate", b.burst)
	}
	if b := newTokenBucket(0.1, 0); b.burst != 1 {
		t.Fatalf("sub-1 rate burst = %v, want 1", b.burst)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var execs atomic.Int64
	block := make(chan struct{})
	started := make(chan struct{})

	const n = 10
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	wg.Add(1)
	go func() {
		defer wg.Done()
		val := g.do("k", func() cached {
			execs.Add(1)
			close(started)
			<-block
			return cached{status: 200, body: []byte("once")}
		})
		if string(val.body) != "once" {
			t.Errorf("leader: val=%q", val.body)
		}
	}()
	<-started
	for i := 1; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			val := g.do("k", func() cached {
				execs.Add(1)
				return cached{status: 200, body: []byte("again")}
			})
			switch string(val.body) {
			case "once": // waited on the leader's computation
				sharedCount.Add(1)
			case "again":
			default:
				t.Errorf("bad value %q", val.body)
			}
		}()
	}
	// Let the followers reach the flight, then release the leader.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()
	// Everyone who joined while the leader was blocked shared its result;
	// stragglers re-execute (the key is gone), which is correct — the
	// response cache above makes that case rare.
	if execs.Load()+sharedCount.Load() != n {
		t.Fatalf("execs=%d shared=%d, want sum %d", execs.Load(), sharedCount.Load(), n)
	}
	if sharedCount.Load() == 0 {
		t.Fatal("no follower coalesced despite blocked leader")
	}
}

func TestFlightGroupDistinctKeys(t *testing.T) {
	g := newFlightGroup()
	var wg sync.WaitGroup
	var execs atomic.Int64
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("key-%d", i)
			val := g.do(key, func() cached {
				execs.Add(1)
				return cached{status: 200, body: []byte(key)}
			})
			if string(val.body) != key {
				t.Errorf("%s: val=%q", key, val.body)
			}
		}(i)
	}
	wg.Wait()
	if execs.Load() != 20 {
		t.Fatalf("execs = %d, want 20 (distinct keys must not coalesce)", execs.Load())
	}
}

func TestFnvShardSpread(t *testing.T) {
	// Sanity: request-like keys spread across shards rather than piling
	// onto one (a weak hash here would serialize the whole cache).
	c := newCache(1024, 16)
	counts := make(map[uint64]int)
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("domain /v1/domain/site%04d.com", i)
		counts[fnv64a(k)&c.mask]++
	}
	if len(counts) < 12 {
		t.Fatalf("keys landed on only %d/16 shards", len(counts))
	}
	for shard, n := range counts {
		if n > 250 {
			t.Fatalf("shard %d got %d/1000 keys", shard, n)
		}
	}
}
