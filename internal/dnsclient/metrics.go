package dnsclient

import "dpsadopt/internal/obs"

// Process-wide resolver latency. The pipeline creates one Resolver per
// worker per day; registering on the default registry aggregates them
// into one stable series across the whole run. Query and give-up counts
// are per resolver (QueriesSent, GiveUps), summed per day into
// measure.NetStats.
var mQueryLatency = obs.Default().Histogram("dns_client_query_seconds",
	"latency of one query exchange, send to matching response", nil)
