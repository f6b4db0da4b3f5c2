package api

import "sync"

// flightCall is one in-progress response computation.
type flightCall struct {
	wg  sync.WaitGroup
	val cached
}

// flightGroup coalesces concurrent identical cache misses: the first
// request for a key runs the index walk, every other concurrent request
// for the same key waits on it and shares the result (the classic
// singleflight shape). With the cache in front of it, a thundering herd
// on a cold key costs exactly one walk.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn for key, or waits for an in-flight fn for the same key and
// returns its result.
func (g *flightGroup) do(key string, fn func() cached) cached {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val
	}
	c := &flightCall{}
	c.wg.Add(1)
	g.calls[key] = c
	g.mu.Unlock()

	defer func() {
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.val = fn()
	return c.val
}
