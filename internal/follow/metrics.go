package follow

import "dpsadopt/internal/obs"

// Committed partitions folded into the serving index, across every
// follower in the process. Lag and skips are per follower and reported
// in /v1/stats freshness.
var mApplied = obs.Default().Counter("follow_partitions_applied_total",
	"committed partitions folded into the serving index")
