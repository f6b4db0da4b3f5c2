package obs

import (
	"runtime"
	"testing"
	"time"
)

// TestRuntimeCollectorRegisters asserts the collector's metric families
// land in the registry under their documented names with live values.
func TestRuntimeCollectorRegisters(t *testing.T) {
	reg := NewRegistry()
	c := StartRuntimeCollector(reg, time.Hour) // loop effectively idle; constructor polls once
	defer c.Close()

	names := map[string]bool{}
	for _, n := range reg.order {
		names[n] = true
	}
	for _, want := range []string{
		"go_goroutines", "go_gomaxprocs", "go_heap_live_bytes",
		"go_heap_goal_bytes", "go_heap_objects", "go_gc_cycles_total",
		"go_gc_cpu_seconds_total", "go_cpu_seconds_total",
		"go_mutex_wait_seconds_total", "go_gc_pause_seconds",
		"go_sched_latency_seconds", "build_info",
		"process_num_cpu", "process_uptime_seconds",
		"process_start_time_seconds", "process_rss_bytes",
	} {
		if !names[want] {
			t.Errorf("collector did not register %q", want)
		}
	}

	snap := reg.Snapshot()
	if g := snap.Gauges["go_goroutines"]; g < 1 {
		t.Errorf("go_goroutines = %v, want >= 1", g)
	}
	if g := snap.Gauges["go_gomaxprocs"]; g != float64(runtime.GOMAXPROCS(0)) {
		t.Errorf("go_gomaxprocs = %v, want %d", g, runtime.GOMAXPROCS(0))
	}
	if g := snap.Gauges["process_num_cpu"]; g != float64(runtime.NumCPU()) {
		t.Errorf("process_num_cpu = %v, want %d", g, runtime.NumCPU())
	}
	key := `build_info{goversion="` + runtime.Version() + `"}`
	if snap.Gauges[key] != 1 {
		t.Errorf("%s = %v, want 1", key, snap.Gauges[key])
	}
}

// TestRuntimeCollectorObservesGC forces GC cycles and checks the pause
// histogram accumulates observations across polls (the bucket-delta
// fold), not just the cumulative runtime totals.
func TestRuntimeCollectorObservesGC(t *testing.T) {
	reg := NewRegistry()
	c := StartRuntimeCollector(reg, time.Hour)
	defer c.Close()
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	c.Poll()
	m, ok := reg.Lookup("go_gc_pause_seconds")
	if !ok {
		t.Fatal("go_gc_pause_seconds not registered")
	}
	if h := m.(*Histogram); h.Count() == 0 {
		t.Error("no GC pauses folded into go_gc_pause_seconds after runtime.GC")
	}
	if g := reg.Snapshot().Gauges["go_gc_cycles_total"]; g < 3 {
		t.Errorf("go_gc_cycles_total = %v, want >= 3", g)
	}
}

// polls reads how many times c has read the runtime metrics.
func polls(c *RuntimeCollector) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.polls
}

// TestRuntimeCollectorCloseStopsLoop proves Close terminates the poll
// loop: after Close returns, the poll count stays frozen. Close is also
// required to be idempotent.
func TestRuntimeCollectorCloseStopsLoop(t *testing.T) {
	reg := NewRegistry()
	c := StartRuntimeCollector(reg, time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for polls(c) < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if polls(c) < 3 {
		t.Fatal("poll loop never ran")
	}
	c.Close()
	n := polls(c)
	time.Sleep(20 * time.Millisecond)
	if got := polls(c); got != n {
		t.Errorf("polls advanced after Close: %d -> %d", n, got)
	}
	c.Close() // idempotent
}

// TestObserveN checks the bulk observation path agrees with repeated
// Observe calls on count, sum, and bucket placement.
func TestObserveN(t *testing.T) {
	a := newHistogram([]float64{1, 10})
	b := newHistogram([]float64{1, 10})
	a.ObserveN(5, 3)
	a.ObserveN(0.5, 2)
	for i := 0; i < 3; i++ {
		b.Observe(5)
	}
	for i := 0; i < 2; i++ {
		b.Observe(0.5)
	}
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Errorf("ObserveN mismatch: count %d vs %d, sum %v vs %v", a.Count(), b.Count(), a.Sum(), b.Sum())
	}
	ac, bc := a.BucketCounts(), b.BucketCounts()
	for i := range ac {
		if ac[i] != bc[i] {
			t.Errorf("bucket %d: %d vs %d", i, ac[i], bc[i])
		}
	}
	a.ObserveN(99, 0) // no-op
	if a.Count() != 5 {
		t.Errorf("ObserveN(_, 0) changed count to %d", a.Count())
	}
}
