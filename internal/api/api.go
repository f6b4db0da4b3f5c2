// Package api is the serving layer: a high-QPS HTTP JSON service that
// answers detection queries against a loaded measurement dataset.
//
// The paper's output — per-domain, per-day DPS detection and
// per-provider adoption series — is produced offline; this package turns
// it into something that serves. At load time, NewIndex runs the §3.3
// detection pass once per partition and builds read-optimized inverted
// structures (domain → packed detection-interval list, provider → daily
// series), so no request ever scans columnar data. The hot path is then
// layered, outermost first:
//
//  1. Admission control: a token bucket (429 when the offered rate
//     exceeds the configured QPS), a bounded concurrency gate (503 when
//     the deadline expires while waiting for a slot), and a per-request
//     deadline — load is shed at the edge instead of queueing
//     unboundedly, in the spirit of layered-defense frontends.
//  2. A sharded LRU response cache (power-of-two shards, per-shard
//     mutex) holding fully rendered JSON bodies.
//  3. Singleflight coalescing: N concurrent misses for one key perform
//     one index walk and share the bytes.
//  4. The index lookup itself, lock-free on the immutable Index.
//
// Every request is recorded by the query observatory (rolling per-route
// latency and error windows, SLO scorecard, slow log).
package api

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
)

// Config tunes the server's admission and caching layers.
type Config struct {
	// QPS is the sustained admitted request rate; <= 0 disables rate
	// limiting.
	QPS float64
	// Burst is the token bucket depth (default: QPS, at least 1).
	Burst int
	// MaxInflight bounds concurrently handled requests (default 256).
	MaxInflight int
	// Timeout is the per-request deadline, covering both the wait for a
	// concurrency slot and the handler itself (default 2s).
	Timeout time.Duration
	// CacheEntries sizes the response cache: 0 means the 4096 default,
	// negative disables caching.
	CacheEntries int
	// Observatory overrides the windowed query observatory (rolling
	// latency/error windows, SLO scorecard, slow-query log, heavy-hitter
	// sketches). Nil builds a default one with DefaultSLOs on the
	// process registry; set ObservatoryOff to run without one.
	Observatory *obs.Observatory
	// ObservatoryOff disables the observatory entirely (benchmarks use
	// this to measure the hot path's windowing overhead).
	ObservatoryOff bool
}

// Server answers the /v1 routes from an immutable Index. The index is
// held behind an atomic pointer so a follower can publish a successor
// (Publish) without stopping the request flow: every request resolves
// the pointer once and serves consistently from that snapshot.
type Server struct {
	idx    atomic.Pointer[Index]
	cfg    Config
	cache  *shardedCache // nil when disabled
	flight *flightGroup
	bucket *tokenBucket // nil when unlimited
	gate   chan struct{}
	mux    *http.ServeMux
	obsv   *obs.Observatory // nil when ObservatoryOff
	// Heavy-hitter sketches, resolved once at construction so finish
	// skips the per-request dimension lookup.
	topkDomain   *obs.TopK
	topkProvider *obs.TopK

	// testHook, when set by tests, runs inside the concurrency gate
	// before the handler — it simulates slow handlers for shed tests.
	testHook func(route string)
	// flightHook, when set by tests, runs inside the singleflight
	// leader's computation — it lets tests hold a flight open and count
	// real index walks.
	flightHook func()

	// freshFn, when set (SetFreshnessFunc), contributes live follower
	// freshness to /v1/stats. Holds a func() *Freshness.
	freshFn atomic.Value
}

// NewServer builds a server for an index.
func NewServer(idx *Index, cfg Config) *Server {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 256
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 4096
	}
	s := &Server{
		cfg:    cfg,
		flight: newFlightGroup(),
		gate:   make(chan struct{}, cfg.MaxInflight),
	}
	s.idx.Store(idx)
	if cfg.CacheEntries > 0 {
		s.cache = newCache(cfg.CacheEntries, cacheShards)
	}
	if cfg.QPS > 0 {
		s.bucket = newTokenBucket(cfg.QPS, cfg.Burst)
	}
	if !cfg.ObservatoryOff {
		s.obsv = cfg.Observatory
		if s.obsv == nil {
			s.obsv = newDefaultObservatory()
		}
		s.topkDomain = s.obsv.Sketch("domain")
		s.topkProvider = s.obsv.Sketch("provider")
	}
	s.mux = http.NewServeMux()
	s.Register(s.mux)
	return s
}

// Register mounts the /v1 routes on an external mux (so a binary can
// serve them alongside /metrics and /debug endpoints on one listener).
func (s *Server) Register(mux *http.ServeMux) {
	mux.Handle("GET /v1/domain/{name}", s.route("domain", s.handleDomain))
	mux.Handle("GET /v1/provider/{name}/series", s.route("series", s.handleSeries))
	mux.Handle("GET /v1/day/{date}", s.route("day", s.handleDay))
	mux.Handle("GET /v1/stats", s.route("stats", s.handleStats))
	if s.obsv != nil {
		mux.Handle("GET /debug/slo", s.obsv.SLOHandler())
		mux.Handle("GET /debug/slowlog", s.obsv.SlowLogHandler())
		mux.Handle("GET /debug/topk", s.obsv.TopKHandler())
	}
}

// Observatory returns the server's query observatory (nil when
// disabled).
func (s *Server) Observatory() *obs.Observatory { return s.obsv }

// Handler returns the server's own mux (API routes only).
func (s *Server) Handler() http.Handler { return s.mux }

// route wraps one handler with the full serving stack: admission
// (bucket → gate → deadline), tracing, cache + coalescing, observatory.
func (s *Server) route(name string, fn func(r *http.Request) cached) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.bucket != nil && !s.bucket.allow() {
			mRateLimited.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.bucket.retryAfterSeconds()))
			s.finish(w, r, name, start, errResponse(http.StatusTooManyRequests, "rate limit exceeded"),
				obs.RequestOutcome{Admission: obs.AdmissionRateLimited})
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		select {
		case s.gate <- struct{}{}:
		default:
			// Gate full: wait, but only as long as the request deadline —
			// the queue is bounded by MaxInflight waiters' deadlines, not
			// by memory.
			select {
			case s.gate <- struct{}{}:
			case <-ctx.Done():
				mShed.Inc()
				s.finish(w, r, name, start, errResponse(http.StatusServiceUnavailable, "server overloaded"),
					obs.RequestOutcome{Admission: obs.AdmissionShed})
				return
			}
		}
		defer func() { <-s.gate }()

		r = r.WithContext(ctx)
		if s.testHook != nil {
			s.testHook(name)
		}
		val, hit, shared := s.respond(name, r, fn)
		s.finish(w, r, name, start, val, obs.RequestOutcome{CacheHit: hit, Coalesced: shared})
	})
}

// respond resolves a request through cache and singleflight, reporting
// how it was satisfied for the observatory.
func (s *Server) respond(route string, r *http.Request, fn func(r *http.Request) cached) (val cached, hit, shared bool) {
	key := route + " " + r.URL.RequestURI()
	if s.cache == nil {
		val, shared = s.flight.do(key, func() cached {
			if s.flightHook != nil {
				s.flightHook()
			}
			return fn(r)
		})
		return val, false, shared
	}
	if val, ok := s.cache.get(key); ok {
		mCacheHits.Inc()
		return val, true, false
	}
	mCacheMisses.Inc()
	// The cache generation is read before the handler resolves the index
	// pointer: if a Publish lands in between, put rejects this (possibly
	// stale) fill instead of resurrecting an invalidated key.
	gen := s.cache.generation()
	val, shared = s.flight.do(key, func() cached {
		if s.flightHook != nil {
			s.flightHook()
		}
		val := fn(r)
		// Only successful and not-found answers are cacheable: both are
		// immutable facts of the served index generation. Errors are not,
		// and neither are volatile responses carrying live process state.
		if !val.volatile && (val.status == http.StatusOK || val.status == http.StatusNotFound) {
			s.cache.put(key, val, gen)
		}
		return val
	})
	return val, false, shared
}

// finish writes the response and records it in the observatory's windowed/slowlog/heavy-hitter views.
func (s *Server) finish(w http.ResponseWriter, r *http.Request, route string, start time.Time, val cached, out obs.RequestOutcome) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(val.status)
	_, _ = w.Write(val.body)
	elapsed := time.Since(start)
	sec := elapsed.Seconds()
	if s.obsv != nil {
		// Detail only matters if the slow log will retain this request;
		// skip the URI build for the common fast one.
		if s.obsv.WouldRetain(route, sec) {
			out.Detail = r.URL.RequestURI()
		}
		s.obsv.RecordRequestAt(start.Add(elapsed), route, sec, val.status, out)
		// Heavy-hitter dimensions: which domains and providers the query
		// mix concentrates on, normalized the way the handlers match.
		switch route {
		case "domain":
			if name := strings.ToLower(strings.TrimSuffix(r.PathValue("name"), ".")); name != "" && len(name) <= maxDomainName {
				s.topkDomain.Offer(name)
			}
		case "series":
			if name := strings.ToLower(r.PathValue("name")); name != "" {
				s.topkProvider.Offer(name)
			}
		}
	}
}

// jsonResponse marshals v into a cached response.
func jsonResponse(status int, v any) cached {
	body, err := json.Marshal(v)
	if err != nil {
		return errResponse(http.StatusInternalServerError, "encoding failed")
	}
	return cached{status: status, body: append(body, '\n')}
}

// errResponse renders the uniform error body.
func errResponse(status int, msg string) cached {
	return cached{status: status, body: []byte(fmt.Sprintf("{\"error\":%q}\n", msg))}
}

// maxDomainName bounds /v1/domain path values (RFC 1035 name limit).
const maxDomainName = 253

func (s *Server) handleDomain(r *http.Request) cached {
	name := strings.ToLower(strings.TrimSuffix(r.PathValue("name"), "."))
	if name == "" || len(name) > maxDomainName || strings.ContainsAny(name, " /\\") {
		return errResponse(http.StatusBadRequest, "invalid domain name")
	}
	h, ok := s.Index().Domain(name)
	if !ok {
		return errResponse(http.StatusNotFound, "domain has no recorded DPS references")
	}
	return jsonResponse(http.StatusOK, h)
}

func (s *Server) handleSeries(r *http.Request) cached {
	name := r.PathValue("name")
	if name == "" {
		return errResponse(http.StatusBadRequest, "invalid provider name")
	}
	series, ok := s.Index().Series(name)
	if !ok {
		return errResponse(http.StatusNotFound, "unknown provider")
	}
	return jsonResponse(http.StatusOK, series)
}

func (s *Server) handleDay(r *http.Request) cached {
	day, err := simtime.Parse(r.PathValue("date"))
	if err != nil {
		return errResponse(http.StatusBadRequest, "invalid date, want YYYY-MM-DD")
	}
	info, ok := s.Index().Day(day)
	if !ok {
		return errResponse(http.StatusNotFound, "day not in dataset")
	}
	return jsonResponse(http.StatusOK, info)
}

// StatsResponse is the /v1/stats body: the dataset/index summary plus a
// live view of the serving process (Go version, GOMAXPROCS, CPU count,
// uptime, RSS) — the same facts the build_info/process_* metrics expose,
// for clients that speak JSON rather than Prometheus text.
type StatsResponse struct {
	Stats
	Process obs.ProcessInfo `json:"process"`
	// Observatory digests the rolling windows, SLO statuses, and
	// heavy-hitter heads; omitted when the observatory is disabled.
	Observatory *obs.ObservatorySummary `json:"observatory,omitempty"`
	// Freshness reports the live-follow state; omitted when the server
	// is not following a feed.
	Freshness *Freshness `json:"freshness,omitempty"`
}

func (s *Server) handleStats(r *http.Request) cached {
	resp := StatsResponse{
		Stats:       s.Index().Stats(),
		Process:     obs.ReadProcessInfo(),
		Observatory: s.obsv.Summary(),
	}
	if fn, ok := s.freshFn.Load().(func() *Freshness); ok {
		resp.Freshness = fn()
	}
	val := jsonResponse(http.StatusOK, resp)
	val.volatile = true
	return val
}
