package api

import "dpsadopt/internal/obs"

// Serving-path metrics, registered on the process-wide registry like
// every other instrumented layer: the answer memo's traffic and the two
// admission layers' rejections.
var (
	mCacheHits = obs.Default().Counter("api_cache_hits_total",
		"memoized answer served")
	mCacheMisses = obs.Default().Counter("api_cache_misses_total",
		"memoized answer rendered")
	mRateLimited = obs.Default().Counter("api_rate_limited_total",
		"requests shed by the token bucket (429)")
	mShed = obs.Default().Counter("api_shed_total",
		"requests shed by the concurrency gate or deadline (503)")
)
