package api

import (
	"math"
	"sync"
	"time"
)

// tokenBucket is the first admission layer: a classic leaky bucket
// refilled at rate tokens/second up to burst. Allow is O(1) under one
// mutex; a request that finds the bucket empty is rejected immediately
// with 429 rather than queued — shedding at the cheapest possible point,
// before any index or render work.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	if burst < 1 {
		burst = int(rate)
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		last:   time.Now(),
	}
}

// allow consumes one token if available.
func (b *tokenBucket) allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// retryAfterSeconds estimates how long until the bucket holds a full
// token again, rounded up to whole seconds (RFC 9110 Retry-After wants
// an integer) with a floor of 1 so clients never busy-loop.
func (b *tokenBucket) retryAfterSeconds() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	need := 1 - b.tokens
	if need <= 0 || b.rate <= 0 {
		return 1
	}
	secs := int(math.Ceil(need / b.rate))
	if secs < 1 {
		secs = 1
	}
	return secs
}
