package experiment

import "dpsadopt/internal/obs"

// Run-level progress metrics. A 550-day reproduction is a long-running
// job; these gauges make an in-flight run legible from /metrics without
// attaching a callback.
var (
	mDaysTotal = obs.Default().Gauge("experiment_days_total",
		"days in the configured run window")
	mDaysCompleted = obs.Default().Gauge("experiment_days_completed",
		"days measured and aggregated so far")
	mRowsSeen = obs.Default().Counter("experiment_rows_total",
		"rows folded into the aggregation across the run")
	mDetected = obs.Default().Gauge("experiment_detected_domains",
		"gTLD domains using any DPS on the most recent measured day")
)
