package api

import (
	"testing"
	"time"
)

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
