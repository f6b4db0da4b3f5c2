package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"dpsadopt/internal/simtime"
)

// TestDegradedAccountingDeterministic is the reproducibility guarantee:
// two runs with the same fault scenario and seed must produce
// byte-identical per-day accounting — every query, loss and give-up in
// the same place — regardless of worker scheduling.
func TestDegradedAccountingDeterministic(t *testing.T) {
	run := func() []byte {
		r, err := New(Config{
			Scale: 400000, Workers: 4, Days: 4,
			Wire: true, FaultScenario: "flaky-1pct", FaultSeed: 7,
			WireTimeout: 100,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		acct := r.Accounting()
		if len(acct) != 4 {
			t.Fatalf("accounting rows = %d, want 4", len(acct))
		}
		var queries, lost int64
		for _, a := range acct {
			queries += a.Queries
			lost += a.Lost
		}
		if queries == 0 {
			t.Fatal("no queries accounted: wire mode did not run")
		}
		if lost == 0 {
			t.Fatal("no losses accounted: the 1% scenario injected nothing")
		}
		b, err := json.Marshal(acct)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("accounting differs between identically-seeded runs:\n%s\n%s", a, b)
	}
}

// TestChaosDegradedDayRecovery closes the loop of the robustness story:
// a dead-day scenario strikes a mid-run window, those days commit as
// degraded (visibly damaged raw counts), and the Fig 5 growth pipeline
// interpolates across the degraded mask so the trend survives the outage.
func TestChaosDegradedDayRecovery(t *testing.T) {
	var start simtime.Day
	badIdx := func(d simtime.Day) int { return int(d - start) }
	const badLo, badHi = 6, 11 // [badLo, badHi) are struck days
	r, err := New(Config{
		Scale: 1000000, Workers: 8, Days: 16,
		Wire: true, FaultScenario: "dead-day", FaultSeed: 7,
		FaultDays:   func(d simtime.Day) bool { i := badIdx(d); return i >= badLo && i < badHi },
		WireTimeout: 10, WireRetries: 1, WireRetryBudget: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	start = r.Window().Start
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Exactly the struck days are committed degraded.
	for _, a := range r.Accounting() {
		bad := badIdx(a.Day) >= badLo && badIdx(a.Day) < badHi
		if a.Degraded != bad {
			t.Errorf("day %s (idx %d): degraded = %v, failure rate %.3f", a.Day, badIdx(a.Day), a.Degraded, a.FailureRate)
		}
		if bad && a.FailureRate <= r.Cfg.FailureThreshold {
			t.Errorf("struck day %s: failure rate %.3f not above threshold", a.Day, a.FailureRate)
		}
		// A quiet day injects nothing, so it loses no data point: every
		// resolution completes (GaveUp == 0). Lost is not held to zero,
		// because it counts attempts whose 10 ms WireTimeout expired, and
		// on a shared 2-vCPU guest a scheduler hiccup expires one now and
		// then with no fault injected (1 run in 6 before this allowance).
		// Such a timeout is retried, and GaveUp == 0 says every retry
		// recovered; more than a handful would be real loss.
		const quietLostMax = 3
		if !bad && (a.GaveUp != 0 || a.Lost > quietLostMax) {
			t.Errorf("quiet day %s: %d resolutions gave up, %d queries lost (want 0 and <= %d)",
				a.Day, a.GaveUp, a.Lost, quietLostMax)
		}
	}
	if got := len(r.DegradedDays()); got != badHi-badLo {
		t.Fatalf("degraded days = %d, want %d", got, badHi-badLo)
	}

	// The raw namespace counts are visibly damaged on struck days...
	gtlds := []string{"com", "net", "org"}
	goodMeasured := r.Agg.SumMeasured(gtlds, start)
	badMeasured := r.Agg.SumMeasured(gtlds, start+badLo+2)
	if goodMeasured == 0 {
		t.Fatal("no domains measured on a quiet day")
	}
	if badMeasured >= goodMeasured*9/10 {
		t.Fatalf("struck day measured %d of %d domains: dead-day scenario did no damage", badMeasured, goodMeasured)
	}

	// ...but the smoothed, mask-interpolated expansion trend stays flat:
	// the outage does not read as namespace collapse.
	g := r.Figure5()
	if len(g.Expansion) == 0 {
		t.Fatal("no expansion series")
	}
	for i, v := range g.Expansion {
		if v < 0.9 || v > 1.1 {
			t.Errorf("expansion[%d] = %.3f: degraded window leaked into the smoothed trend", i, v)
		}
	}
}
