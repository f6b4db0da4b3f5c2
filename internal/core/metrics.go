package core

import "dpsadopt/internal/obs"

// Stage-resolved timing: where a DetectRange worker's time goes. Buckets
// reach down to 1µs because healthy queue waits are sub-microsecond and
// a partition's scan is tens to hundreds of µs at bench scales.
var (
	stageBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4,
		2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1,
	}
	mDetectStage = obs.Default().HistogramVec("detect_stage_seconds",
		"per-worker time by DetectRange stage (queue_wait, scan, merge, barrier)",
		"stage", stageBuckets)
	mStageQueueWait    = mDetectStage.With("queue_wait")
	mStageScan         = mDetectStage.With("scan")
	mStageMerge        = mDetectStage.With("merge")
	mStageBarrier      = mDetectStage.With("barrier")
	mDetectUtilization = obs.Default().Gauge("detect_worker_utilization",
		"busy fraction (scan+merge over pool capacity) of the last DetectRange call")
)
