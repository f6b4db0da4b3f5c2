package api

import (
	"dpsadopt/internal/obs"
)

// Default latency objectives per route, in seconds. The domain route is
// the pure-index hot path (sub-millisecond when memoized); series and day
// aggregate more data; stats renders live process state on every call.
var defaultLatencySLOs = []struct {
	route     string
	threshold float64
}{
	{"domain", 0.005},
	{"series", 0.010},
	{"day", 0.010},
	{"stats", 0.025},
}

// DefaultSLOs returns the serving tier's stock objectives: 99.9%
// availability per route, plus a per-route p-latency target (99% of
// requests under the route's threshold, e.g. /v1/domain under 5ms).
func DefaultSLOs() []obs.Objective {
	out := make([]obs.Objective, 0, 2*len(defaultLatencySLOs))
	for _, l := range defaultLatencySLOs {
		out = append(out, obs.Objective{
			Name:   l.route + "-availability",
			Route:  l.route,
			Kind:   obs.KindAvailability,
			Target: 0.999,
		})
	}
	for _, l := range defaultLatencySLOs {
		out = append(out, obs.Objective{
			Name:             l.route + "-latency",
			Route:            l.route,
			Kind:             obs.KindLatency,
			Target:           0.99,
			LatencyThreshold: l.threshold,
		})
	}
	return out
}

// newDefaultObservatory builds the observatory a server uses when the
// config supplies none: stock SLOs, with the slo_* gauges on the
// process-wide registry.
func newDefaultObservatory() *obs.Observatory {
	return obs.NewObservatory(obs.ObservatoryConfig{SLOs: DefaultSLOs(), Registry: obs.Default()})
}
