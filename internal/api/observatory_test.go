package api

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dpsadopt/internal/obs"
)

// stepClock is a hand-advanced time source for deterministic window
// tests.
type stepClock struct {
	mu sync.Mutex
	t  time.Time
}

func newStepClock() *stepClock { return &stepClock{t: time.Unix(1_700_000_000, 0)} }

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *stepClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// observedServer builds a fixture server whose observatory runs on an
// injected clock and a private registry, isolated from other tests.
func observedServer(t *testing.T, clk *stepClock, cfg Config) *Server {
	t.Helper()
	cfg.Observatory = obs.NewObservatory(obs.ObservatoryConfig{
		Clock: clk.Now,
		SLOs:  DefaultSLOs(),
	})
	return fixtureServer(t, cfg)
}

func TestRetryAfterOn429(t *testing.T) {
	srv := fixtureServer(t, Config{QPS: 0.5, Burst: 1})
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/domain/alpha.com", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("first request: %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/domain/alpha.com", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: %d, want 429", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatalf("429 without Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer >= 1", ra)
	}
	// One token at 0.5/s is two seconds out; allow one second of slack
	// for refill between the two requests.
	if secs > 2 {
		t.Fatalf("Retry-After = %d, want <= 2 at rate 0.5", secs)
	}
}

func TestObservatoryRecordsRequests(t *testing.T) {
	clk := newStepClock()
	srv := observedServer(t, clk, Config{})
	h := srv.Handler()

	get(t, h, "/v1/domain/alpha.com")
	get(t, h, "/v1/domain/alpha.com") // memo hit
	get(t, h, "/v1/domain/gamma.com")
	get(t, h, "/v1/provider/Akamai/series")
	get(t, h, "/v1/domain/"+strings.Repeat("a", 300)) // 400

	o := srv.Observatory()
	snap := o.Route("domain").Latency.MergedAt(clk.Now(), obs.FastWindow)
	if snap.Count != 4 {
		t.Fatalf("domain window count = %d, want 4", snap.Count)
	}
}

func TestObservatoryWindowedP99Deterministic(t *testing.T) {
	clk := newStepClock()
	o := obs.NewObservatory(obs.ObservatoryConfig{Clock: clk.Now, SLOs: DefaultSLOs()})
	// Drive the observatory directly with synthetic latencies: the p99
	// over the fast window must be exactly the interpolated bucket
	// value, and advancing the clock must age it out.
	for i := 0; i < 99; i++ {
		o.RecordRequestAt(time.Now(), "domain", 0.0008, 200)
	}
	o.RecordRequestAt(time.Now(), "domain", 0.05, 200)

	snap := o.Route("domain").Latency.MergedAt(clk.Now(), obs.FastWindow)
	if got := snap.Quantile(0.99); got != 0.001 {
		t.Fatalf("windowed p99 = %v, want exactly 0.001", got)
	}
	sc := o.Scorecard()
	for _, obj := range sc.Objectives {
		if obj.Route == "domain" && obj.Kind == obs.KindLatency {
			if obj.Fast.Total != 100 || obj.Fast.Bad != 1 {
				t.Fatalf("latency objective fast = %+v", obj.Fast)
			}
		}
	}

	clk.Advance(6 * time.Minute)
	if got := o.Route("domain").Latency.MergedAt(clk.Now(), obs.FastWindow).Count; got != 0 {
		t.Fatalf("fast window after aging = %d, want 0", got)
	}
}

func TestDebugSLOEndpoint(t *testing.T) {
	clk := newStepClock()
	srv := observedServer(t, clk, Config{})
	h := srv.Handler()
	get(t, h, "/v1/domain/alpha.com")

	code, body := get(t, h, "/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo: %d", code)
	}
	sc := decodeAs[obs.Scorecard](t, body)
	if len(sc.Objectives) != len(DefaultSLOs()) {
		t.Fatalf("objectives = %d, want %d", len(sc.Objectives), len(DefaultSLOs()))
	}
	for _, obj := range sc.Objectives {
		if obj.Status != "ok" {
			t.Fatalf("%s status = %q on healthy traffic", obj.Name, obj.Status)
		}
	}
}

// TestScorecardIsARead: scoring an objective whose route has served
// nothing creates no windows for it, so a fresh observatory's digest
// lists no routes however often it is read, while /debug/slo still
// scores every objective, as zero traffic.
func TestScorecardIsARead(t *testing.T) {
	srv := observedServer(t, newStepClock(), Config{})
	o := srv.Observatory()
	for i := 1; i <= 2; i++ {
		if sum := o.Summary(); len(sum.Routes) != 0 {
			t.Fatalf("Summary call %d lists routes %v with no traffic", i, sum.Routes)
		}
	}
	code, body := get(t, srv.Handler(), "/debug/slo")
	if code != http.StatusOK {
		t.Fatalf("/debug/slo: %d", code)
	}
	sc := decodeAs[obs.Scorecard](t, body)
	if len(sc.Objectives) != len(DefaultSLOs()) {
		t.Fatalf("objectives = %d, want %d", len(sc.Objectives), len(DefaultSLOs()))
	}
	for _, obj := range sc.Objectives {
		if obj.Status != "ok" || obj.Fast.Total != 0 || obj.Slow.Total != 0 {
			t.Fatalf("%s on no traffic: status %q, totals %d/%d", obj.Name, obj.Status, obj.Fast.Total, obj.Slow.Total)
		}
	}
	if sum := o.Summary(); len(sum.Routes) != 0 {
		t.Fatalf("routes after /debug/slo: %v", sum.Routes)
	}
}

// assertRetiredEndpoint checks that a debug endpoint whose backing
// structure is gone is no longer mounted, even after traffic.
func assertRetiredEndpoint(t *testing.T, path string) {
	t.Helper()
	h := observedServer(t, newStepClock(), Config{}).Handler()
	get(t, h, "/v1/domain/alpha.com")
	if code, _ := get(t, h, path); code != http.StatusNotFound {
		t.Fatalf("%s: %d, want 404", path, code)
	}
}

// TestDebugSlowLogEndpoint: the slow-query log is gone, and its endpoint
// with it.
func TestDebugSlowLogEndpoint(t *testing.T) {
	assertRetiredEndpoint(t, "/debug/slowlog")
}

// TestDebugTopKEndpoint: the heavy-hitter sketches are gone, and their
// endpoint with them.
func TestDebugTopKEndpoint(t *testing.T) {
	assertRetiredEndpoint(t, "/debug/topk")
}

func TestStatsEmbedsObservatory(t *testing.T) {
	clk := newStepClock()
	srv := observedServer(t, clk, Config{})
	h := srv.Handler()
	get(t, h, "/v1/domain/alpha.com")

	_, body := get(t, h, "/v1/stats")
	resp := decodeAs[StatsResponse](t, body)
	if resp.Observatory == nil {
		t.Fatalf("stats missing observatory digest")
	}
	if resp.Observatory.Routes["domain"].Requests5m != 1 {
		t.Fatalf("observatory route digest = %+v", resp.Observatory.Routes)
	}
	if len(resp.Observatory.SLOStatus) != len(DefaultSLOs()) {
		t.Fatalf("slo statuses = %+v", resp.Observatory.SLOStatus)
	}
}

// TestDefaultObservatoryExposesSLOGauges: a server configured without
// an observatory builds the default one, which publishes its scorecard
// on the process registry.
func TestDefaultObservatoryExposesSLOGauges(t *testing.T) {
	srv := fixtureServer(t, Config{})
	get(t, srv.Handler(), "/v1/domain/alpha.com")
	srv.Observatory().Publish()
	snap := obs.Default().Snapshot()
	for _, key := range []string{`slo_status{slo="domain-availability"}`, `slo_burn_rate{slo="domain-latency:5m"}`} {
		if _, ok := snap.Gauges[key]; !ok {
			t.Fatalf("%s not exposed", key)
		}
	}
}

func TestObservatoryOff(t *testing.T) {
	srv := fixtureServer(t, Config{ObservatoryOff: true})
	h := srv.Handler()
	if srv.Observatory() != nil {
		t.Fatalf("observatory present despite ObservatoryOff")
	}
	code, _ := get(t, h, "/v1/domain/alpha.com")
	if code != http.StatusOK {
		t.Fatalf("serving broken without observatory: %d", code)
	}
	if code, _ := get(t, h, "/debug/slo"); code != http.StatusNotFound {
		t.Fatalf("/debug/slo mounted despite ObservatoryOff: %d", code)
	}
	_, body := get(t, h, "/v1/stats")
	resp := decodeAs[StatsResponse](t, body)
	if resp.Observatory != nil {
		t.Fatalf("stats carries observatory despite ObservatoryOff")
	}
}
