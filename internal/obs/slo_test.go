package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"
)

// approx absorbs the float error of (bad/total)/(1-target): the division
// by a tiny budget amplifies the representation error of 0.999.
func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

func testObservatory(clk *fakeClock, reg *Registry) *Observatory {
	return NewObservatory(ObservatoryConfig{
		Clock:    clk.Now,
		Registry: reg,
		SLOs: []Objective{
			{Name: "r-availability", Route: "r", Kind: KindAvailability, Target: 0.999},
			{Name: "r-latency", Route: "r", Kind: KindLatency, Target: 0.99, LatencyThreshold: 0.005},
		},
	})
}

// loadMixed records 990 fast successes and 10 slow server errors at the
// observatory's current clock.
func loadMixed(o *Observatory) {
	for i := 0; i < 990; i++ {
		o.RecordRequestAt(o.clock(), "r", 0.0008, 200)
	}
	for i := 0; i < 10; i++ {
		o.RecordRequestAt(o.clock(), "r", 0.05, 500)
	}
}

func TestScorecardBurnRatesDeterministic(t *testing.T) {
	clk := newFakeClock()
	o := testObservatory(clk, nil)
	loadMixed(o)

	sc := o.Scorecard()
	if len(sc.Objectives) != 2 {
		t.Fatalf("objectives = %d", len(sc.Objectives))
	}
	avail, lat := sc.Objectives[0], sc.Objectives[1]

	// Availability: 10 bad of 1000 at a 0.001 budget → burn exactly 10
	// in both windows (all traffic is inside the fast window).
	for _, ws := range []WindowScore{avail.Fast, avail.Slow} {
		if ws.Total != 1000 || ws.Bad != 10 {
			t.Fatalf("avail %s: total %d bad %d", ws.Window, ws.Total, ws.Bad)
		}
		if !approx(ws.BurnRate, 10) {
			t.Fatalf("avail %s burn = %v, want 10", ws.Window, ws.BurnRate)
		}
		if ws.GoodRatio != 0.99 {
			t.Fatalf("avail %s good ratio = %v", ws.Window, ws.GoodRatio)
		}
	}
	if avail.Status != "warn" {
		t.Fatalf("avail status = %q, want warn (burn 10 is past warn 3, short of page 14.4)", avail.Status)
	}

	// Latency: threshold 0.005 is an exact bucket bound; 10 of 1000
	// exceeded it at a 0.01 budget → burn exactly 1.
	if lat.EffectiveThreshold != 0.005 {
		t.Fatalf("effective threshold = %v", lat.EffectiveThreshold)
	}
	if lat.Fast.Bad != 10 || !approx(lat.Fast.BurnRate, 1) {
		t.Fatalf("lat fast: bad %d burn %v, want 10 / 1", lat.Fast.Bad, lat.Fast.BurnRate)
	}
	if lat.Status != "ok" {
		t.Fatalf("lat status = %q", lat.Status)
	}
	// p99 of 990×0.0008 + 10×0.05 lands exactly on the 0.001 bound.
	if lat.P99FastS != 0.001 {
		t.Fatalf("p99 fast = %v, want 0.001", lat.P99FastS)
	}
}

func TestScorecardWindowDivergence(t *testing.T) {
	clk := newFakeClock()
	o := testObservatory(clk, nil)
	loadMixed(o)

	// Six minutes later the errors have aged out of the fast window but
	// not the slow one: fast burn 0 forces status back to ok (the
	// two-window minimum), while the slow window still shows the burn.
	clk.Advance(6 * time.Minute)
	sc := o.Scorecard()
	avail := sc.Objectives[0]
	if avail.Fast.Total != 0 || avail.Fast.BurnRate != 0 {
		t.Fatalf("fast after aging: total %d burn %v", avail.Fast.Total, avail.Fast.BurnRate)
	}
	if avail.Slow.Total != 1000 || !approx(avail.Slow.BurnRate, 10) {
		t.Fatalf("slow after aging: total %d burn %v", avail.Slow.Total, avail.Slow.BurnRate)
	}
	if avail.Status != "ok" {
		t.Fatalf("status = %q, want ok", avail.Status)
	}
}

func TestScorecardZeroTraffic(t *testing.T) {
	clk := newFakeClock()
	o := testObservatory(clk, nil)
	sc := o.Scorecard()
	for _, obj := range sc.Objectives {
		if obj.Fast.BurnRate != 0 || obj.Slow.BurnRate != 0 {
			t.Fatalf("%s burns on zero traffic: %v/%v", obj.Name, obj.Fast.BurnRate, obj.Slow.BurnRate)
		}
		if obj.Status != "ok" {
			t.Fatalf("%s status = %q on zero traffic", obj.Name, obj.Status)
		}
	}
	ok, warn, breach := sc.CountStatus()
	if ok != 2 || warn != 0 || breach != 0 {
		t.Fatalf("counts = %d/%d/%d", ok, warn, breach)
	}
}

func TestPublishGaugesAndTransitions(t *testing.T) {
	clk := newFakeClock()
	reg := NewRegistry()
	o := testObservatory(clk, reg)
	loadMixed(o)

	o.Publish()

	m, ok := reg.Lookup("slo_burn_rate")
	if !ok {
		t.Fatalf("slo_burn_rate not registered")
	}
	if got := m.(*GaugeVec).With("r-availability:5m").Value(); !approx(got, 10) {
		t.Fatalf("burn gauge = %v, want 10", got)
	}
	st, _ := reg.Lookup("slo_status")
	if got := st.(*GaugeVec).With("r-availability").Value(); got != 1 {
		t.Fatalf("status gauge = %v, want 1 (warn)", got)
	}

	// Worst picks the highest two-window burn.
	name, burn := o.Scorecard().Worst()
	if name != "r-availability" || !approx(burn, 10) {
		t.Fatalf("worst = %s/%v", name, burn)
	}
}

func TestSLOHandler(t *testing.T) {
	clk := newFakeClock()
	o := testObservatory(clk, nil)
	loadMixed(o)

	rec := httptest.NewRecorder()
	o.SLOHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slo", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var sc Scorecard
	if err := json.Unmarshal(rec.Body.Bytes(), &sc); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(sc.Objectives) != 2 || sc.FastWindow != "5m0s" || sc.PageBurn != DefaultPageBurn {
		t.Fatalf("scorecard = %+v", sc)
	}
	if !approx(sc.Objectives[0].Fast.BurnRate, 10) {
		t.Fatalf("served burn = %v", sc.Objectives[0].Fast.BurnRate)
	}
}

func TestObservatoryNilSafe(t *testing.T) {
	var o *Observatory
	o.RecordRequestAt(time.Now(), "r", 0.001, 200)
	if o.Summary() != nil {
		t.Fatalf("nil observatory summary != nil")
	}
	o.StartEvaluator(time.Second)()
	o.Publish()
}

func TestObservatorySummary(t *testing.T) {
	clk := newFakeClock()
	o := testObservatory(clk, nil)
	loadMixed(o)

	sum := o.Summary()
	r := sum.Routes["r"]
	if r.Requests5m != 1000 || r.Errors5m != 10 {
		t.Fatalf("route summary = %+v", r)
	}
	if r.P99MS5m != 1 { // 0.001s
		t.Fatalf("p99 ms = %v, want 1", r.P99MS5m)
	}
	if sum.SLOStatus["r-availability"] != "warn" {
		t.Fatalf("slo status = %+v", sum.SLOStatus)
	}
}
