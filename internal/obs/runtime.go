package obs

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"
)

// runtimeSampleNames are the runtime/metrics samples the collector polls.
// Gauges publish the latest value; the two Float64Histograms (GC pauses,
// scheduler latencies) are folded into registry histograms by bucket
// delta, so /metrics shows the distribution accumulated since the
// collector started rather than since process start.
const (
	rmGoroutines  = "/sched/goroutines:goroutines"
	rmGomaxprocs  = "/sched/gomaxprocs:threads"
	rmHeapLive    = "/memory/classes/heap/objects:bytes"
	rmHeapGoal    = "/gc/heap/goal:bytes"
	rmHeapObjects = "/gc/heap/objects:objects"
	rmGCCycles    = "/gc/cycles/total:gc-cycles"
	rmGCCPU       = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU    = "/cpu/classes/total:cpu-seconds"
	rmMutexWait   = "/sync/mutex/wait/total:seconds"
	rmGCPauses    = "/gc/pauses:seconds"
	rmSchedLat    = "/sched/latencies:seconds"
)

// runtimeHistBounds buckets GC pauses and scheduler latencies: 1µs to
// 100ms covers a healthy run through a badly contended one.
var runtimeHistBounds = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4,
	2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1,
}

// RuntimeCollector polls the Go runtime's own metrics
// (runtime/metrics) into a Registry so GC behavior, scheduler latency,
// goroutine counts and lock contention are first-class signals on
// /metrics next to the application's counters. One collector per
// process is the intended shape: binaries start it when they start the
// obs server, benches start it around a measured region.
type RuntimeCollector struct {
	reg      *Registry
	interval time.Duration

	gGoroutines  *Gauge
	gGomaxprocs  *Gauge
	gNumCPU      *Gauge
	gHeapLive    *Gauge
	gHeapGoal    *Gauge
	gHeapObjects *Gauge
	gGCCycles    *Gauge
	gGCCPU       *Gauge
	gTotalCPU    *Gauge
	gMutexWait   *Gauge
	gUptime      *Gauge
	gStart       *Gauge
	gRSS         *Gauge
	hGCPause     *Histogram
	hSchedLat    *Histogram

	samples   []metrics.Sample
	prevPause metrics.Float64Histogram
	prevSched metrics.Float64Histogram

	start     time.Time
	mu        sync.Mutex // serializes Poll (ticker loop vs explicit calls)
	polls     int64
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// StartRuntimeCollector registers the runtime metric families on reg and
// starts a poll loop at the given interval (<= 0 defaults to 5s). Close
// stops the loop; the collector polls once synchronously before
// returning so the gauges are live immediately.
func StartRuntimeCollector(reg *Registry, interval time.Duration) *RuntimeCollector {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	c := &RuntimeCollector{
		reg:      reg,
		interval: interval,
		start:    time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),

		gGoroutines: reg.Gauge("go_goroutines", "live goroutines"),
		gGomaxprocs: reg.Gauge("go_gomaxprocs", "current GOMAXPROCS"),
		gNumCPU:     reg.Gauge("process_num_cpu", "runtime.NumCPU() of the host"),
		gHeapLive:   reg.Gauge("go_heap_live_bytes", "bytes of live heap objects"),
		gHeapGoal:   reg.Gauge("go_heap_goal_bytes", "GC pacer heap goal"),
		gHeapObjects: reg.Gauge("go_heap_objects",
			"live heap objects"),
		gGCCycles: reg.Gauge("go_gc_cycles_total", "completed GC cycles"),
		gGCCPU: reg.Gauge("go_gc_cpu_seconds_total",
			"estimated CPU seconds spent in the garbage collector"),
		gTotalCPU: reg.Gauge("go_cpu_seconds_total",
			"estimated total available CPU seconds (runtime accounting)"),
		gMutexWait: reg.Gauge("go_mutex_wait_seconds_total",
			"cumulative seconds goroutines have waited on contended sync primitives"),
		gUptime: reg.Gauge("process_uptime_seconds", "seconds since the collector started"),
		gStart: reg.Gauge("process_start_time_seconds",
			"unix time the collector started"),
		gRSS: reg.Gauge("process_rss_bytes",
			"resident set size from /proc/self/statm (0 where unavailable)"),
		hGCPause: reg.Histogram("go_gc_pause_seconds",
			"stop-the-world GC pause durations", runtimeHistBounds),
		hSchedLat: reg.Histogram("go_sched_latency_seconds",
			"time goroutines spent runnable before running", runtimeHistBounds),
	}
	// build_info carries the toolchain as a label, value pinned to 1 —
	// the standard shape for joining version info onto other series.
	reg.GaugeVec("build_info", "Go toolchain the binary was built with",
		"goversion").With(runtime.Version()).Set(1)
	c.gStart.Set(float64(c.start.UnixNano()) / 1e9)

	for _, name := range []string{
		rmGoroutines, rmGomaxprocs, rmHeapLive, rmHeapGoal, rmHeapObjects,
		rmGCCycles, rmGCCPU, rmTotalCPU, rmMutexWait, rmGCPauses, rmSchedLat,
	} {
		c.samples = append(c.samples, metrics.Sample{Name: name})
	}
	c.Poll()
	go c.loop()
	return c
}

func (c *RuntimeCollector) loop() {
	defer close(c.done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.Poll()
		}
	}
}

// Poll reads the runtime metrics once and updates the registry. The
// ticker loop calls it on its interval; callers may also invoke it
// directly (e.g. right before snapshotting a benchmark cell).
func (c *RuntimeCollector) Poll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	metrics.Read(c.samples)
	for i := range c.samples {
		s := &c.samples[i]
		switch s.Name {
		case rmGoroutines:
			c.gGoroutines.Set(float64(s.Value.Uint64()))
		case rmGomaxprocs:
			c.gGomaxprocs.Set(float64(s.Value.Uint64()))
		case rmHeapLive:
			c.gHeapLive.Set(float64(s.Value.Uint64()))
		case rmHeapGoal:
			c.gHeapGoal.Set(float64(s.Value.Uint64()))
		case rmHeapObjects:
			c.gHeapObjects.Set(float64(s.Value.Uint64()))
		case rmGCCycles:
			c.gGCCycles.Set(float64(s.Value.Uint64()))
		case rmGCCPU:
			c.gGCCPU.Set(s.Value.Float64())
		case rmTotalCPU:
			c.gTotalCPU.Set(s.Value.Float64())
		case rmMutexWait:
			c.gMutexWait.Set(s.Value.Float64())
		case rmGCPauses:
			foldHistogramDelta(c.hGCPause, &c.prevPause, s.Value.Float64Histogram())
		case rmSchedLat:
			foldHistogramDelta(c.hSchedLat, &c.prevSched, s.Value.Float64Histogram())
		}
	}
	c.gNumCPU.Set(float64(runtime.NumCPU()))
	c.gUptime.Set(time.Since(c.start).Seconds())
	c.gRSS.Set(float64(readRSSBytes()))
	c.polls++
}

// Close stops the poll loop and waits for it to exit. Safe to call more
// than once.
func (c *RuntimeCollector) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	<-c.done
}

// foldHistogramDelta transfers the observations a runtime cumulative
// histogram gained since the previous poll into an obs histogram, one
// ObserveN per changed bucket at the bucket midpoint. prev is updated to
// cur's counts. Runtime histograms keep stable bucket layouts for the
// life of the process; if the layout ever changes, the fold restarts
// from zero rather than guessing a mapping.
func foldHistogramDelta(h *Histogram, prev *metrics.Float64Histogram, cur *metrics.Float64Histogram) {
	if cur == nil {
		return
	}
	sameLayout := len(prev.Buckets) == len(cur.Buckets) && len(prev.Counts) == len(cur.Counts)
	for i := 0; sameLayout && i < len(prev.Buckets); i++ {
		sameLayout = prev.Buckets[i] == cur.Buckets[i]
	}
	for i, n := range cur.Counts {
		if sameLayout {
			n -= prev.Counts[i]
		}
		if n == 0 {
			continue
		}
		// The extreme runtime buckets are open-ended; clamp to the
		// finite edge so the fold stays inside real values.
		lo, hi := cur.Buckets[i], cur.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		h.ObserveN(lo+(hi-lo)/2, n)
	}
	prev.Buckets = append(prev.Buckets[:0], cur.Buckets...)
	prev.Counts = append(prev.Counts[:0], cur.Counts...)
}

// readRSSBytes reads the resident set size from /proc/self/statm
// (field 2, in pages). Returns 0 on platforms or sandboxes without it.
func readRSSBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Split(bufio.ScanWords)
	if !sc.Scan() || !sc.Scan() { // skip total size, take resident
		return 0
	}
	pages, err := strconv.ParseInt(sc.Text(), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// ProcessInfo is a point-in-time description of the running process for
// embedding in API responses (dpsapi /v1/stats) and bench metadata.
type ProcessInfo struct {
	GoVersion  string  `json:"go_version"`
	Gomaxprocs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	UptimeSec  float64 `json:"uptime_seconds"`
	RSSBytes   int64   `json:"rss_bytes"`
}

// processStart pins process "uptime" to package init, close enough to
// exec for human consumption and independent of collector lifecycle.
var processStart = time.Now()

// ReadProcessInfo captures the current process facts.
func ReadProcessInfo() ProcessInfo {
	return ProcessInfo{
		GoVersion:  runtime.Version(),
		Gomaxprocs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		UptimeSec:  time.Since(processStart).Seconds(),
		RSSBytes:   readRSSBytes(),
	}
}
