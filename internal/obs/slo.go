package obs

// The SLO engine: declarative objectives over the windowed route metrics,
// scored as multiwindow error-budget burn rates (Google SRE-style: a
// fast 5m window catches new fires quickly, a slow 1h window keeps a
// brief spike from paging). Burn rate is the rate at which the error
// budget is being consumed: (bad/total) / (1 - target). Burn 1 means the
// budget exactly lasts the SLO period; the alerting thresholds below are
// the standard 14.4 (2% of a 30-day budget in one hour) and 3.

// ObjectiveKind selects what an objective measures.
type ObjectiveKind string

const (
	// KindAvailability scores non-5xx responses against a ratio target
	// (e.g. 0.999).
	KindAvailability ObjectiveKind = "availability"
	// KindLatency scores responses faster than LatencyThreshold against
	// a ratio target (e.g. 99% under 5ms).
	KindLatency ObjectiveKind = "latency"
)

// Burn-rate thresholds for status classification.
const (
	DefaultWarnBurn = 3.0
	DefaultPageBurn = 14.4
)

// Objective is one declarative service-level objective on a route.
type Objective struct {
	Name  string        `json:"name"`
	Route string        `json:"route"`
	Kind  ObjectiveKind `json:"kind"`
	// Target is the good-events ratio the objective promises, in (0,1)
	// — e.g. 0.999 for three nines. Values >= 1 are clamped: a zero
	// error budget cannot define a finite burn rate.
	Target float64 `json:"target"`
	// LatencyThreshold (seconds) bounds a good request for KindLatency;
	// it snaps up to the nearest histogram bucket bound at evaluation.
	LatencyThreshold float64 `json:"latency_threshold_s,omitempty"`
}

// WindowScore is one objective evaluated over one window.
type WindowScore struct {
	Window    string  `json:"window"`
	Total     uint64  `json:"total"`
	Bad       uint64  `json:"bad"`
	GoodRatio float64 `json:"good_ratio"`
	BurnRate  float64 `json:"burn_rate"`
}

// ObjectiveScore is one objective's full multiwindow evaluation.
type ObjectiveScore struct {
	Objective
	// EffectiveThreshold is the bucket bound the latency threshold
	// snapped to (0 for availability objectives).
	EffectiveThreshold float64     `json:"effective_threshold_s,omitempty"`
	Fast               WindowScore `json:"fast"`
	Slow               WindowScore `json:"slow"`
	P50FastS           float64     `json:"p50_fast_s"`
	P99FastS           float64     `json:"p99_fast_s"`
	// Status is "ok", "warn", or "breach": breach when BOTH windows
	// burn above the page threshold, warn when both exceed the warn
	// threshold — requiring both windows is what stops a short spike
	// from flapping the status.
	Status string `json:"status"`
}

// Scorecard is the full SLO evaluation served at /debug/slo and logged
// as the final summary on drain.
type Scorecard struct {
	GeneratedAt string           `json:"generated_at"`
	FastWindow  string           `json:"fast_window"`
	SlowWindow  string           `json:"slow_window"`
	WarnBurn    float64          `json:"warn_burn"`
	PageBurn    float64          `json:"page_burn"`
	Objectives  []ObjectiveScore `json:"objectives"`
}

// CountStatus tallies objectives by status.
func (sc Scorecard) CountStatus() (ok, warn, breach int) {
	for _, o := range sc.Objectives {
		switch o.Status {
		case "warn":
			warn++
		case "breach":
			breach++
		default:
			ok++
		}
	}
	return
}

// Worst returns the objective with the highest effective (two-window
// minimum) burn rate, the one an operator should look at first.
func (sc Scorecard) Worst() (name string, burn float64) {
	for _, o := range sc.Objectives {
		b := min(o.Fast.BurnRate, o.Slow.BurnRate)
		if name == "" || b > burn {
			name, burn = o.Name, b
		}
	}
	return
}

// burnRate converts bad/total counts to an error-budget burn rate; zero
// traffic burns nothing.
func burnRate(bad, total uint64, target float64) float64 {
	if total == 0 {
		return 0
	}
	budget := 1 - clampTarget(target)
	return (float64(bad) / float64(total)) / budget
}

func clampTarget(target float64) float64 {
	const maxTarget = 0.9999999
	if target > maxTarget {
		return maxTarget
	}
	if target <= 0 {
		return 0.5
	}
	return target
}

func goodRatio(bad, total uint64) float64 {
	if total == 0 {
		return 1
	}
	return float64(total-bad) / float64(total)
}

func statusFor(fast, slow WindowScore) string {
	b := min(fast.BurnRate, slow.BurnRate)
	switch {
	case b >= DefaultPageBurn:
		return "breach"
	case b >= DefaultWarnBurn:
		return "warn"
	default:
		return "ok"
	}
}

func statusLevel(status string) float64 {
	switch status {
	case "warn":
		return 1
	case "breach":
		return 2
	default:
		return 0
	}
}
