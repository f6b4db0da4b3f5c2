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
	mDomains = obs.Default().Counter("measure_domains_total",
		"domain measurement tasks completed")
	mDays = obs.Default().Counter("measure_days_total",
		"measurement days completed")
)

const (
	stageZoneAcquisition = "zone_acquisition"
	stageResolution      = "resolution"
	stageStorage         = "storage"
)
