package dnsserver

import "dpsadopt/internal/obs"

// Process-wide authoritative-server metrics; one simulated Internet runs
// thousands of Server instances, all feeding the same series.
var mQueries = obs.Default().Counter("dns_server_queries_total",
	"queries handled (including refused ones); rate() gives QPS")
