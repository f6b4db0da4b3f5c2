package dnsclient

import "dpsadopt/internal/obs"

// Process-wide resolver metrics. The pipeline creates one Resolver per
// worker per day; registering on the default registry aggregates them
// into stable series across the whole run.
var (
	mQueries = obs.Default().Counter("dns_client_queries_total",
		"query datagrams sent (UDP and TCP)")
	mErrors = obs.Default().Counter("dns_client_errors_total",
		"resolutions that returned an error (retries exhausted, referral limit, ...)")
	mQueryLatency = obs.Default().Histogram("dns_client_query_seconds",
		"latency of one query exchange, send to matching response", nil)
)
