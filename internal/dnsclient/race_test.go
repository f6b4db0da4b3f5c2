package dnsclient

import (
	"context"
	"errors"
	"sync"
	"testing"

	"dpsadopt/internal/dnswire"
)

// TestQueriesSentConcurrent exercises the query counter from both sides
// at once: one goroutine resolving (the Resolver itself is
// single-goroutine by contract) while a stats scraper polls QueriesSent.
// Run under -race this proves the counter is safe to read
// mid-resolution, as its doc promises; the pipeline itself reads it, with
// the other failure counters, once a worker's share of a day is done.
func TestQueriesSentConcurrent(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)

	var resolvers sync.WaitGroup
	resolvers.Add(1)
	go func() {
		defer resolvers.Done()
		for j := 0; j < 100; j++ {
			if _, err := r.Resolve(context.Background(), "examp.le", dnswire.TypeA); err != nil {
				t.Errorf("resolve: %v", err)
				return
			}
		}
	}()

	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		last := int64(0)
		for {
			select {
			case <-done:
				return
			default:
			}
			n := r.QueriesSent()
			if n < last {
				t.Error("QueriesSent went backwards")
				return
			}
			last = n
		}
	}()

	resolvers.Wait()
	close(done)
	poller.Wait()
	if r.QueriesSent() == 0 {
		t.Fatal("no queries counted")
	}
}

// TestResolveCancelled verifies a cancelled context aborts resolution
// before any further network exchange.
func TestResolveCancelled(t *testing.T) {
	w := newTestWorld(t)
	r := w.resolver(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Resolve(ctx, "examp.le", dnswire.TypeA); !errors.Is(err, context.Canceled) {
		t.Fatalf("Resolve on cancelled ctx = %v, want context.Canceled", err)
	}
}
