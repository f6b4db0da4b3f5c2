package measure

import "dpsadopt/internal/obs"

// Stage bucket bounds: day stages run milliseconds (small worlds) to
// minutes (full namespace), much wider than query latencies.
var stageBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 30, 60, 120, 300,
}

// Pipeline metrics, labeled by the paper's Fig 1 stage names: Stage I
// zone acquisition, Stage II worker-cloud resolution, Stage III storage.
var (
	mStageSeconds = obs.Default().HistogramVec("measure_stage_seconds",
		"wall time per pipeline stage per day", "stage", stageBuckets)
	mWorkersActive = obs.Default().Gauge("measure_workers_active",
		"worker goroutines currently measuring a task chunk")
	mDomains = obs.Default().Counter("measure_domains_total",
		"domain measurement tasks completed")
	mDays = obs.Default().Counter("measure_days_total",
		"measurement days completed")
	mDomainsPerSec = obs.Default().Gauge("measure_domains_per_second",
		"throughput of the most recently completed day")
	// Rolling per-domain resolve latency: unlike measure_stage_seconds
	// (cumulative, per-day stages), this ages out, so a long run's
	// /metrics shows the *current* resolve tail rather than the
	// whole-run average. Wire mode only: direct mode has no resolution
	// to time. Default windows (5m/1h) and query-latency bounds: a
	// domain resolves in tens of microseconds to seconds (retries).
	mResolveWindow = obs.Default().WindowHistogram("measure_resolve_window_seconds",
		"rolling per-domain resolve latency over 5m and 1h windows (wire mode only)", nil, 0, 0)
)

const (
	stageZoneAcquisition = "zone_acquisition"
	stageResolution      = "resolution"
	stageStorage         = "storage"
)
