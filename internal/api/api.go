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
//     exceeds the configured QPS) and a bounded concurrency gate (503
//     when no slot frees up within Config.Timeout, or the client goes
//     away while waiting) — load is shed at the edge instead of queueing
//     unboundedly, in the spirit of layered-defense frontends. The
//     deadline is armed only for a request that has to wait: one that
//     finds a free slot carries none, since behind the gate there is
//     only in-memory work.
//  2. The index lookup, lock-free on the immutable Index.
//  3. The answer's memo slot in that index generation: the stored body,
//     or a render (JSON encode) that is then stored. Each generation
//     holds at most one body per detected domain, indexed day and
//     provider, so the memo grows with the index and not with the
//     traffic; publishing a new generation is its invalidation.
//
// Every request is recorded by the query observatory: rolling per-route
// latency and 5xx windows, scored by the SLO scorecard.
package api

import (
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

// Config tunes the server's admission layers and its answer memo.
type Config struct {
	// QPS is the sustained admitted request rate; <= 0 disables rate
	// limiting.
	QPS float64
	// Burst is the token bucket depth (default: QPS, at least 1).
	Burst int
	// MaxInflight bounds concurrently handled requests (default 256).
	MaxInflight int
	// Timeout bounds how long a request waits for a concurrency slot
	// when the gate is full; it is shed with 503 after that (default
	// 2s). An admitted request carries no deadline: behind the gate it
	// does only in-memory work (an index lookup and at most one render),
	// and no handler reads a context.
	Timeout time.Duration
	// CacheEntries < 0 renders every answer per request, which prices
	// the uncached handler; any other value memoizes each index
	// generation's answers in the generation itself. Only the sign is
	// read: the memo holds one body per domain, day and provider.
	CacheEntries int
	// Observatory overrides the windowed query observatory (rolling
	// latency/5xx windows and the SLO scorecard over them). Nil builds a
	// default one with DefaultSLOs on the process registry; set
	// ObservatoryOff to run without one.
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
	bucket *tokenBucket // nil when unlimited
	gate   chan struct{}
	mux    *http.ServeMux
	obsv   *obs.Observatory // nil when ObservatoryOff

	// testHook, when set by tests, runs inside the concurrency gate
	// before the handler — it simulates slow handlers for shed tests.
	testHook func(route string)
	// renderHook, when set by tests, runs before every render of a
	// memoizable answer, after the handler resolved the index — it lets
	// tests count renders and hold one open across a Publish.
	renderHook func()

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
	s := &Server{
		cfg:  cfg,
		gate: make(chan struct{}, cfg.MaxInflight),
	}
	s.idx.Store(idx)
	if cfg.QPS > 0 {
		s.bucket = newTokenBucket(cfg.QPS, cfg.Burst)
	}
	if !cfg.ObservatoryOff {
		s.obsv = cfg.Observatory
		if s.obsv == nil {
			s.obsv = newDefaultObservatory()
		}
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
	}
}

// Observatory returns the server's query observatory (nil when
// disabled).
func (s *Server) Observatory() *obs.Observatory { return s.obsv }

// Handler returns the server's own mux (API routes only).
func (s *Server) Handler() http.Handler { return s.mux }

// route wraps one handler with the full serving stack: admission
// (bucket → gate), handler, observatory.
func (s *Server) route(name string, fn func(r *http.Request) response) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if s.bucket != nil && !s.bucket.allow() {
			mRateLimited.Inc()
			w.Header().Set("Retry-After", strconv.Itoa(s.bucket.retryAfterSeconds()))
			s.finish(w, name, start, respRateLimited)
			return
		}
		select {
		case s.gate <- struct{}{}:
		default:
			if !s.awaitSlot(r) {
				mShed.Inc()
				s.finish(w, name, start, respOverloaded)
				return
			}
		}
		defer func() { <-s.gate }()

		if s.testHook != nil {
			s.testHook(name)
		}
		s.finish(w, name, start, fn(r))
	})
}

// awaitSlot waits for a slot of the full concurrency gate, but only up
// to Timeout or until r's client goes away, and reports whether it got
// one. The queue is thus bounded by MaxInflight waiters' deadlines, not
// by memory. The timer is armed here, on the slow path, so a request
// that finds a free slot pays for no deadline.
func (s *Server) awaitSlot(r *http.Request) bool {
	t := time.NewTimer(s.cfg.Timeout)
	defer t.Stop()
	select {
	case s.gate <- struct{}{}:
		return true
	case <-t.C:
		return false
	case <-r.Context().Done():
		return false
	}
}

// answer serves the body memoized in slot, or renders it and, if the
// render succeeded, memoizes it. slot belongs to the index generation
// render reads, so a render that began before a Publish lands in the
// replaced generation and never in the one now served. Racing first
// renders store identical bytes; the last store wins.
func (s *Server) answer(slot *memo, render func() response) response {
	memoize := s.cfg.CacheEntries >= 0
	if memoize {
		if b := slot.Load(); b != nil {
			mCacheHits.Inc()
			return response{status: http.StatusOK, body: *b}
		}
	}
	if s.renderHook != nil {
		s.renderHook()
	}
	val := render()
	if memoize && val.status == http.StatusOK {
		mCacheMisses.Inc()
		body := val.body
		slot.Store(&body)
	}
	return val
}

// contentTypeJSON is every response's Content-Type value, shared so
// finish assigns it instead of allocating a fresh slice per response.
var contentTypeJSON = []string{"application/json; charset=utf-8"}

// finish writes the response and records its route, latency and status
// in the observatory.
func (s *Server) finish(w http.ResponseWriter, route string, start time.Time, val response) {
	w.Header()["Content-Type"] = contentTypeJSON
	w.WriteHeader(val.status)
	_, _ = w.Write(val.body)
	elapsed := time.Since(start)
	s.obsv.RecordRequestAt(start.Add(elapsed), route, elapsed.Seconds(), val.status)
}

// response is one materialised answer: a status and its JSON body.
type response struct {
	status int
	body   []byte
}

// jsonResponse marshals v into a response.
func jsonResponse(status int, v any) response {
	body, err := json.Marshal(v)
	if err != nil {
		return respEncodingFailed
	}
	return response{status: status, body: append(body, '\n')}
}

// The error answers, rendered once: every message is fixed, and the
// ones a shedding server sends most (429, 503) then cost no formatting.
// Their bodies are shared and never written to.
var (
	respRateLimited     = fixedError(http.StatusTooManyRequests, "rate limit exceeded")
	respOverloaded      = fixedError(http.StatusServiceUnavailable, "server overloaded")
	respEncodingFailed  = fixedError(http.StatusInternalServerError, "encoding failed")
	respBadDomain       = fixedError(http.StatusBadRequest, "invalid domain name")
	respNoDomain        = fixedError(http.StatusNotFound, "domain has no recorded DPS references")
	respBadProvider     = fixedError(http.StatusBadRequest, "invalid provider name")
	respUnknownProvider = fixedError(http.StatusNotFound, "unknown provider")
	respBadDate         = fixedError(http.StatusBadRequest, "invalid date, want YYYY-MM-DD")
	respNoDay           = fixedError(http.StatusNotFound, "day not in dataset")
)

// fixedError renders the uniform error body.
func fixedError(status int, msg string) response {
	return response{status: status, body: []byte(fmt.Sprintf("{\"error\":%q}\n", msg))}
}

// maxDomainName bounds /v1/domain path values (RFC 1035 name limit).
const maxDomainName = 253

func (s *Server) handleDomain(r *http.Request) response {
	name := strings.ToLower(strings.TrimSuffix(r.PathValue("name"), "."))
	if name == "" || len(name) > maxDomainName || strings.ContainsAny(name, " /\\") {
		return respBadDomain
	}
	x := s.Index()
	e, ok := x.domains[name]
	if !ok {
		return respNoDomain
	}
	return s.answer(&e.body, func() response {
		h, _ := x.Domain(name)
		return jsonResponse(http.StatusOK, h)
	})
}

func (s *Server) handleSeries(r *http.Request) response {
	name := r.PathValue("name")
	if name == "" {
		return respBadProvider
	}
	x := s.Index()
	p := x.provider(name)
	if p < 0 {
		return respUnknownProvider
	}
	return s.answer(&x.seriesBody[p], func() response {
		series, _ := x.Series(name)
		return jsonResponse(http.StatusOK, series)
	})
}

func (s *Server) handleDay(r *http.Request) response {
	day, err := simtime.Parse(r.PathValue("date"))
	if err != nil {
		return respBadDate
	}
	x := s.Index()
	di, ok := x.dayPos[day]
	if !ok {
		return respNoDay
	}
	return s.answer(x.dayBody[di], func() response {
		info, _ := x.Day(day)
		return jsonResponse(http.StatusOK, info)
	})
}

// StatsResponse is the /v1/stats body: the dataset/index summary plus a
// live view of the serving process (Go version, GOMAXPROCS, CPU count,
// uptime, RSS) — the same facts the build_info/process_* metrics expose,
// for clients that speak JSON rather than Prometheus text.
type StatsResponse struct {
	Stats
	Process obs.ProcessInfo `json:"process"`
	// Observatory digests the rolling windows and SLO statuses; omitted
	// when the observatory is disabled.
	Observatory *obs.ObservatorySummary `json:"observatory,omitempty"`
	// Freshness reports the live-follow state; omitted when the server
	// is not following a feed.
	Freshness *Freshness `json:"freshness,omitempty"`
}

func (s *Server) handleStats(r *http.Request) response {
	resp := StatsResponse{
		Stats:       s.Index().Stats(),
		Process:     obs.ReadProcessInfo(),
		Observatory: s.obsv.Summary(),
	}
	if fn, ok := s.freshFn.Load().(func() *Freshness); ok {
		resp.Freshness = fn()
	}
	return jsonResponse(http.StatusOK, resp)
}
