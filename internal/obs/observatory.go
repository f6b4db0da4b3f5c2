package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// ObservatoryConfig configures an Observatory. The zero value is usable:
// wall clock, no registry exposition, and no objectives.
type ObservatoryConfig struct {
	// Clock injects a time source for deterministic tests; nil uses
	// time.Now.
	Clock Clock
	// SLOs are the objectives the scorecard evaluates, in report order.
	SLOs []Objective
	// Registry, when set, carries the scorecard on /metrics as the
	// slo_burn_rate and slo_status gauges.
	Registry *Registry
}

// RouteWindows is the windowed telemetry of one route.
type RouteWindows struct {
	Latency *WindowedHistogram
	Errors  *WindowedCounter // 5xx responses
}

// Observatory is the serving tier's query observatory: rolling windowed
// latency and 5xx tracking per route, and an SLO scorecard over those
// windows. All methods are safe for concurrent use and
// nil-receiver-safe, so callers can thread an optional *Observatory
// without guards.
type Observatory struct {
	slos  []Objective
	clock Clock
	// realClock is true when no clock was injected; RecordRequestAt may
	// then trust caller-supplied timestamps.
	realClock bool

	mu     sync.RWMutex
	routes map[string]*RouteWindows

	sloMu      sync.Mutex
	lastStatus map[string]string

	gBurn, gStatus *GaugeVec
}

// NewObservatory creates an observatory from cfg.
func NewObservatory(cfg ObservatoryConfig) *Observatory {
	o := &Observatory{
		slos:       cfg.SLOs,
		clock:      cfg.Clock,
		realClock:  cfg.Clock == nil,
		routes:     make(map[string]*RouteWindows),
		lastStatus: make(map[string]string),
	}
	if o.realClock {
		o.clock = time.Now
	}
	if reg := cfg.Registry; reg != nil {
		o.gBurn = reg.GaugeVec("slo_burn_rate", "error-budget burn rate per objective and window (label is objective:window)", "slo")
		o.gStatus = reg.GaugeVec("slo_status", "objective status: 0 ok, 1 warn, 2 breach", "slo")
	}
	return o
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
	rw = &RouteWindows{Latency: NewWindowedHistogram(), Errors: new(WindowedCounter)}
	o.routes[route] = rw
	return rw
}

// RecordRequestAt records one served request at now, a wall-clock
// timestamp the caller already has (e.g. start.Add(elapsed)), saving a
// clock read per request: latency into the route's windowed histogram
// and a 5xx into its windowed error counter. An observatory on an
// injected clock ignores the hint and keeps its own time, so
// deterministic tests stay deterministic.
func (o *Observatory) RecordRequestAt(now time.Time, route string, seconds float64, status int) {
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
		WarnBurn:    DefaultWarnBurn,
		PageBurn:    DefaultPageBurn,
		Objectives:  make([]ObjectiveScore, 0, len(o.slos)),
	}
	for _, obj := range o.slos {
		sc.Objectives = append(sc.Objectives, o.scoreObjective(obj, now))
	}
	return sc
}

func (o *Observatory) scoreObjective(obj Objective, now time.Time) ObjectiveScore {
	// A route that has served nothing scores as zero traffic: its nil
	// windows read as empty, and none are created for it here.
	var rw RouteWindows
	o.mu.RLock()
	if p := o.routes[obj.Route]; p != nil {
		rw = *p
	}
	o.mu.RUnlock()
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
	score.Status = statusFor(score.Fast, score.Slow)
	return score
}

// Publish evaluates the scorecard, pushes it into the slo_* gauges, and
// emits a structured log event on every status
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
// fast-window traffic and objective statuses.
type ObservatorySummary struct {
	Routes    map[string]RouteWindowSummary `json:"routes"`
	SLOStatus map[string]string             `json:"slo_status"`
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
	}
	o.mu.RLock()
	for name, rw := range o.routes {
		s := rw.Latency.MergedAt(now, FastWindow)
		sum.Routes[name] = RouteWindowSummary{
			Requests5m: s.Count,
			Rate5m:     float64(s.Count) / FastWindow.Seconds(),
			Errors5m:   uint64(rw.Errors.TotalAt(now, FastWindow)),
			P50MS5m:    s.Quantile(0.50) * 1000,
			P99MS5m:    s.Quantile(0.99) * 1000,
		}
	}
	o.mu.RUnlock()
	for _, obj := range o.slos {
		sum.SLOStatus[obj.Name] = o.scoreObjective(obj, now).Status
	}
	return sum
}

// SLOHandler serves the scorecard at /debug/slo.
func (o *Observatory) SLOHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(o.Scorecard())
	})
}
