package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Admission outcomes recorded per request.
const (
	AdmissionOK          = "ok"
	AdmissionRateLimited = "rate_limited"
	AdmissionShed        = "shed"
)

// ObservatoryConfig configures an Observatory. The zero value is usable:
// default windows, DefBuckets latency resolution, default slowlog/top-K
// sizes, wall clock, no registry exposition, and no objectives.
type ObservatoryConfig struct {
	// Clock injects a time source for deterministic tests; nil uses
	// time.Now.
	Clock Clock
	// Step and Span size the windowed rings (defaults:
	// DefaultWindowStep / SlowWindow).
	Step, Span time.Duration
	// LatencyBounds are the histogram bucket bounds in seconds (nil
	// uses DefBuckets).
	LatencyBounds []float64
	// SlowLogSize is the per-route slow-query retention (<=0 uses
	// DefaultSlowLogSize).
	SlowLogSize int
	// TopK is the heavy-hitter sketch capacity per dimension (<=0 uses
	// DefaultTopK).
	TopK int
	// SLOs are the objectives the scorecard evaluates, in report order.
	SLOs []Objective
	// WarnBurn and PageBurn are the status thresholds (<=0 uses
	// DefaultWarnBurn / DefaultPageBurn).
	WarnBurn, PageBurn float64
	// Registry, when set, exposes per-route windows (under
	// WindowMetricPrefix), slo_* gauges, and heavy-hitter gauges on
	// /metrics. Adoption is idempotent: if another observatory already
	// registered a route's window, this one records into the shared
	// series.
	Registry *Registry
	// WindowMetricPrefix names the per-route window series, e.g.
	// "api_request_window" yields api_request_window_seconds_<route>
	// and api_request_window_errors_<route>. Empty skips per-route
	// exposition even with a Registry.
	WindowMetricPrefix string
}

// RequestOutcome carries the per-request context the observatory records
// beyond route/latency/status.
type RequestOutcome struct {
	CacheHit  bool
	Coalesced bool
	Admission string // AdmissionOK when empty
	Detail    string // request detail for the slow log, e.g. the URI
}

// RouteWindows is the windowed telemetry of one route.
type RouteWindows struct {
	Latency *WindowedHistogram
	Errors  *WindowedCounter // 5xx responses

	// slow is the route's slow-log shard, cached here so RecordRequest
	// can run the floor check without a second route lookup.
	slow    *slowRouteLog
	slowCap int
}

// Observatory is the serving-tier query observatory: rolling windowed
// latency/error tracking per route, an SLO scorecard over those windows,
// a bounded slow-query log, and heavy-hitter sketches over query keys.
// All methods are safe for concurrent use and nil-receiver-safe, so
// callers can thread an optional *Observatory without guards.
type Observatory struct {
	cfg   ObservatoryConfig
	clock Clock
	// realClock is true when no clock was injected; RecordRequestAt may
	// then trust caller-supplied timestamps.
	realClock bool
	slowlog   *SlowLog

	mu     sync.RWMutex
	routes map[string]*RouteWindows
	topks  map[string]*TopK

	sloMu      sync.Mutex
	lastStatus map[string]string

	gBurn, gStatus, gTopTracked *GaugeVec
}

// NewObservatory creates an observatory from cfg.
func NewObservatory(cfg ObservatoryConfig) *Observatory {
	realClock := cfg.Clock == nil
	if realClock {
		cfg.Clock = time.Now
	}
	if cfg.WarnBurn <= 0 {
		cfg.WarnBurn = DefaultWarnBurn
	}
	if cfg.PageBurn <= 0 {
		cfg.PageBurn = DefaultPageBurn
	}
	o := &Observatory{
		cfg:        cfg,
		clock:      cfg.Clock,
		realClock:  realClock,
		slowlog:    NewSlowLog(cfg.SlowLogSize),
		routes:     make(map[string]*RouteWindows),
		topks:      make(map[string]*TopK),
		lastStatus: make(map[string]string),
	}
	if reg := cfg.Registry; reg != nil {
		o.gBurn = reg.GaugeVec("slo_burn_rate", "error-budget burn rate per objective and window (label is objective:window)", "slo")
		o.gStatus = reg.GaugeVec("slo_status", "objective status: 0 ok, 1 warn, 2 breach", "slo")
		o.gTopTracked = reg.GaugeVec("heavy_hitter_tracked_keys", "keys tracked by the top-K sketch per dimension", "dim")
	}
	return o
}

// SlowLog returns the observatory's slow-query log.
func (o *Observatory) SlowLog() *SlowLog {
	if o == nil {
		return nil
	}
	return o.slowlog
}

// Route returns (creating on first use) the windowed telemetry for a
// route.
func (o *Observatory) Route(route string) *RouteWindows {
	o.mu.RLock()
	rw := o.routes[route]
	o.mu.RUnlock()
	if rw != nil {
		return rw
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if rw := o.routes[route]; rw != nil {
		return rw
	}
	lat := NewWindowedHistogram(o.cfg.LatencyBounds, o.cfg.Step, o.cfg.Span, o.clock)
	errs := NewWindowedCounter(o.cfg.Step, o.cfg.Span, o.clock)
	if o.cfg.Registry != nil && o.cfg.WindowMetricPrefix != "" {
		base := o.cfg.WindowMetricPrefix + "_"
		lat = o.cfg.Registry.RegisterWindowHistogram(base+"seconds_"+metricName(route),
			"rolling request latency of route "+route, lat)
		errs = o.cfg.Registry.RegisterWindowCounter(base+"errors_"+metricName(route),
			"rolling 5xx responses of route "+route, errs)
	}
	rw = &RouteWindows{
		Latency: lat, Errors: errs,
		slow: o.slowlog.route(route), slowCap: o.slowlog.perRoute,
	}
	o.routes[route] = rw
	return rw
}

// WouldRetain reports whether a request this slow would currently enter
// the slow-query log — a single atomic load, so hot paths can skip
// building RequestOutcome.Detail for requests the log will reject.
// Advisory: the floor can move between this check and RecordRequest.
func (o *Observatory) WouldRetain(route string, seconds float64) bool {
	if o == nil {
		return false
	}
	return o.Route(route).slow.aboveFloor(seconds)
}

// RecordRequest records one served request: latency into the route's
// windowed histogram, 5xx into its windowed error counter, and the
// request into the slow-query log.
func (o *Observatory) RecordRequest(route string, seconds float64, status int, out RequestOutcome) {
	if o == nil {
		return
	}
	o.RecordRequestAt(o.clock(), route, seconds, status, out)
}

// RecordRequestAt is RecordRequest reusing a wall-clock timestamp the
// caller already has (e.g. start.Add(elapsed)), saving a clock read per
// request. An observatory on an injected clock ignores the hint and
// keeps its own time, so deterministic tests stay deterministic.
func (o *Observatory) RecordRequestAt(now time.Time, route string, seconds float64, status int, out RequestOutcome) {
	if o == nil {
		return
	}
	if !o.realClock {
		now = o.clock()
	}
	rw := o.Route(route)
	rw.Latency.ObserveAt(now, seconds)
	if status >= 500 {
		rw.Errors.AddAt(now, 1)
	}
	// Steady-state fast path: one atomic floor load rejects requests
	// faster than the slowest retained entry before any struct is built.
	if !rw.slow.aboveFloor(seconds) {
		return
	}
	if out.Admission == "" {
		out.Admission = AdmissionOK
	}
	rw.slow.offer(SlowQuery{
		Route:     route,
		Detail:    out.Detail,
		Seconds:   seconds,
		Status:    status,
		CacheHit:  out.CacheHit,
		Coalesced: out.Coalesced,
		Admission: out.Admission,
		At:        now.UTC(),
	}, rw.slowCap)
}

// Sketch returns (creating on first use) the heavy-hitter sketch for
// one dimension. Hot paths can cache the returned sketch and Offer keys
// directly, skipping the dimension lookup per request.
func (o *Observatory) Sketch(dim string) *TopK {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	t := o.topks[dim]
	o.mu.RUnlock()
	if t == nil {
		o.mu.Lock()
		if t = o.topks[dim]; t == nil {
			t = NewTopK(o.cfg.TopK)
			o.topks[dim] = t
		}
		o.mu.Unlock()
	}
	return t
}

// RecordKey counts one occurrence of key in the named heavy-hitter
// dimension (e.g. "domain", "provider").
func (o *Observatory) RecordKey(dim, key string) {
	if o == nil || key == "" {
		return
	}
	o.Sketch(dim).Offer(key)
}

// TopKDim returns the sketch for one dimension (nil if never recorded).
func (o *Observatory) TopKDim(dim string) *TopK {
	if o == nil {
		return nil
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	return o.topks[dim]
}

// Scorecard evaluates every objective as of the observatory clock. It is
// a pure read — no gauges move, no logs fire — so handlers and tests can
// call it freely.
func (o *Observatory) Scorecard() Scorecard {
	now := o.clock()
	sc := Scorecard{
		GeneratedAt: now.UTC().Format(time.RFC3339Nano),
		FastWindow:  FastWindow.String(),
		SlowWindow:  SlowWindow.String(),
		WarnBurn:    o.cfg.WarnBurn,
		PageBurn:    o.cfg.PageBurn,
		Objectives:  make([]ObjectiveScore, 0, len(o.cfg.SLOs)),
	}
	for _, obj := range o.cfg.SLOs {
		sc.Objectives = append(sc.Objectives, o.scoreObjective(obj, now))
	}
	return sc
}

func (o *Observatory) scoreObjective(obj Objective, now time.Time) ObjectiveScore {
	rw := o.Route(obj.Route)
	fastSnap := rw.Latency.MergedAt(now, FastWindow)
	slowSnap := rw.Latency.MergedAt(now, SlowWindow)
	score := ObjectiveScore{
		Objective: obj,
		P50FastS:  fastSnap.Quantile(0.50),
		P99FastS:  fastSnap.Quantile(0.99),
	}
	windowScore := func(label string, snap WindowSnapshot, window time.Duration) WindowScore {
		var bad uint64
		switch obj.Kind {
		case KindLatency:
			good, eff := snap.GoodCount(obj.LatencyThreshold)
			score.EffectiveThreshold = eff
			bad = snap.Count - good
		default: // availability
			bad = uint64(rw.Errors.TotalAt(now, window))
			if bad > snap.Count {
				bad = snap.Count
			}
		}
		return WindowScore{
			Window:    label,
			Total:     snap.Count,
			Bad:       bad,
			GoodRatio: goodRatio(bad, snap.Count),
			BurnRate:  burnRate(bad, snap.Count, obj.Target),
		}
	}
	score.Fast = windowScore("5m", fastSnap, FastWindow)
	score.Slow = windowScore("1h", slowSnap, SlowWindow)
	score.Status = statusFor(score.Fast, score.Slow, o.cfg.WarnBurn, o.cfg.PageBurn)
	return score
}

// Publish evaluates the scorecard, pushes it into the slo_* and
// heavy-hitter gauges, and emits a structured log event on every status
// transition (worsening logs at warn level, recovery at info). The
// evaluator loop calls this periodically; callers may also invoke it
// directly (e.g. right before shutdown).
func (o *Observatory) Publish() Scorecard {
	if o == nil {
		return Scorecard{}
	}
	sc := o.Scorecard()
	for _, obj := range sc.Objectives {
		if o.gBurn != nil {
			o.gBurn.With(obj.Name + ":5m").Set(obj.Fast.BurnRate)
			o.gBurn.With(obj.Name + ":1h").Set(obj.Slow.BurnRate)
			o.gStatus.With(obj.Name).Set(statusLevel(obj.Status))
		}
		o.logTransition(obj)
	}
	if o.gTopTracked != nil {
		o.mu.RLock()
		dims := make(map[string]*TopK, len(o.topks))
		for dim, t := range o.topks {
			dims[dim] = t
		}
		o.mu.RUnlock()
		for dim, t := range dims {
			o.gTopTracked.With(dim).Set(float64(len(t.Top(0))))
		}
	}
	return sc
}

func (o *Observatory) logTransition(obj ObjectiveScore) {
	o.sloMu.Lock()
	last, seen := o.lastStatus[obj.Name]
	o.lastStatus[obj.Name] = obj.Status
	o.sloMu.Unlock()
	if (seen && last == obj.Status) || (!seen && obj.Status == "ok") {
		return
	}
	args := []any{
		"objective", obj.Name, "route", obj.Route,
		"from", last, "to", obj.Status,
		"burn_fast", obj.Fast.BurnRate, "burn_slow", obj.Slow.BurnRate,
	}
	if obj.Status == "ok" {
		Logger().Info("slo status recovered", args...)
	} else {
		Logger().Warn("slo status changed", args...)
	}
}

// StartEvaluator runs Publish every interval (<=0 uses 10s) until the
// returned stop function is called. Nil-safe: a nil observatory returns
// a no-op stop.
func (o *Observatory) StartEvaluator(interval time.Duration) (stop func()) {
	if o == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = 10 * time.Second
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				o.Publish()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// RouteWindowSummary is one route's fast-window digest inside the
// /v1/stats observatory block.
type RouteWindowSummary struct {
	Requests5m uint64  `json:"requests_5m"`
	Rate5m     float64 `json:"rate_5m"`
	Errors5m   uint64  `json:"errors_5m"`
	P50MS5m    float64 `json:"p50_5m_ms"`
	P99MS5m    float64 `json:"p99_5m_ms"`
}

// ObservatorySummary is the digest embedded in /v1/stats: per-route
// fast-window traffic, objective statuses, and the head of each
// heavy-hitter dimension.
type ObservatorySummary struct {
	Routes    map[string]RouteWindowSummary `json:"routes"`
	SLOStatus map[string]string             `json:"slo_status"`
	TopK      map[string][]TopKEntry        `json:"top_k"`
}

// Summary builds the /v1/stats digest (nil receiver yields nil, so the
// JSON field is simply omitted).
func (o *Observatory) Summary() *ObservatorySummary {
	if o == nil {
		return nil
	}
	now := o.clock()
	sum := &ObservatorySummary{
		Routes:    make(map[string]RouteWindowSummary),
		SLOStatus: make(map[string]string),
		TopK:      make(map[string][]TopKEntry),
	}
	o.mu.RLock()
	routes := make(map[string]*RouteWindows, len(o.routes))
	for name, rw := range o.routes {
		routes[name] = rw
	}
	dims := make(map[string]*TopK, len(o.topks))
	for dim, t := range o.topks {
		dims[dim] = t
	}
	o.mu.RUnlock()
	for name, rw := range routes {
		s := rw.Latency.MergedAt(now, FastWindow)
		sum.Routes[name] = RouteWindowSummary{
			Requests5m: s.Count,
			Rate5m:     float64(s.Count) / FastWindow.Seconds(),
			Errors5m:   uint64(rw.Errors.TotalAt(now, FastWindow)),
			P50MS5m:    s.Quantile(0.50) * 1000,
			P99MS5m:    s.Quantile(0.99) * 1000,
		}
	}
	for _, obj := range o.cfg.SLOs {
		sum.SLOStatus[obj.Name] = o.scoreObjective(obj, now).Status
	}
	for dim, t := range dims {
		sum.TopK[dim] = t.Top(5)
	}
	return sum
}

// SLOHandler serves the scorecard at /debug/slo.
func (o *Observatory) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, o.Scorecard())
	})
}

// SlowLogHandler serves the slow-query log at /debug/slowlog.
func (o *Observatory) SlowLogHandler() http.Handler { return o.slowlog.Handler() }

// topkReport is one dimension's /debug/topk block.
type topkReport struct {
	K          int         `json:"k"`
	Total      uint64      `json:"total"`
	ErrorBound uint64      `json:"error_bound"`
	Top        []TopKEntry `json:"top"`
}

// TopKHandler serves the heavy-hitter sketches at /debug/topk: one block
// per dimension; `?n=` caps entries (default 20).
func (o *Observatory) TopKHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 20
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		o.mu.RLock()
		dims := make([]string, 0, len(o.topks))
		sketches := make(map[string]*TopK, len(o.topks))
		for dim, t := range o.topks {
			dims = append(dims, dim)
			sketches[dim] = t
		}
		o.mu.RUnlock()
		sort.Strings(dims)
		resp := make(map[string]topkReport, len(dims))
		for _, dim := range dims {
			t := sketches[dim]
			resp[dim] = topkReport{K: t.K(), Total: t.Total(), ErrorBound: t.ErrorBound(), Top: t.Top(n)}
		}
		writeJSON(w, resp)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// metricName sanitizes a route name into a metric-name suffix.
func metricName(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
