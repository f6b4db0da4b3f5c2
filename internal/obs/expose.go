package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order with sorted
// label values, so scrapes and test assertions are deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	entries := make([]*entry, 0, len(names))
	for _, n := range names {
		entries = append(entries, r.entries[n])
	}
	r.mu.RUnlock()

	var b strings.Builder
	for _, e := range entries {
		if e.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", e.name, escapeHelp(e.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", e.name, e.kind)
		switch m := e.m.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s %d\n", e.name, m.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s %s\n", e.name, formatFloat(m.Value()))
		case *Histogram:
			writeHistogram(&b, e.name, "", m)
		case *GaugeVec:
			for _, val := range m.sortedValues() {
				fmt.Fprintf(&b, "%s{%s=%q} %s\n", e.name, m.label, escapeLabel(val), formatFloat(m.With(val).Value()))
			}
		case *HistogramVec:
			for _, val := range m.sortedValues() {
				writeHistogram(&b, e.name, fmt.Sprintf("%s=%q,", m.label, escapeLabel(val)), m.With(val))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram emits the _bucket/_sum/_count series for one histogram;
// labelPrefix is either empty or `label="value",` for vec children.
// Buckets with an exemplar carry it as an OpenMetrics exemplar suffix
// (`# {trace_id="..."} value`), linking the bucket to the trace of its
// slowest observation.
func writeHistogram(b *strings.Builder, name, labelPrefix string, h *Histogram) {
	counts, exemplars := h.BucketCounts(), h.Exemplars()
	count, sum := h.Count(), h.Sum()
	var cum uint64
	for i, bound := range h.bounds {
		cum += counts[i]
		fmt.Fprintf(b, "%s_bucket{%sle=%q} %d%s\n", name, labelPrefix, formatFloat(bound), cum, exemplarSuffix(exemplars[i]))
	}
	cum += counts[len(h.bounds)]
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d%s\n", name, labelPrefix, cum, exemplarSuffix(exemplars[len(h.bounds)]))
	if labelPrefix == "" {
		fmt.Fprintf(b, "%s_sum %s\n", name, formatFloat(sum))
		fmt.Fprintf(b, "%s_count %d\n", name, count)
	} else {
		lp := strings.TrimSuffix(labelPrefix, ",")
		fmt.Fprintf(b, "%s_sum{%s} %s\n", name, lp, formatFloat(sum))
		fmt.Fprintf(b, "%s_count{%s} %d\n", name, lp, count)
	}
}

func exemplarSuffix(e *Exemplar) string {
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # {trace_id=%q} %s", e.TraceID, formatFloat(e.Value))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

// HistogramSnapshot summarises one histogram for machine consumption.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// Snapshot is a point-in-time copy of every metric in a registry, keyed
// by metric name; vec children use `name{label="value"}` keys. It
// marshals cleanly to JSON; the bench/ harness reads its per-layer
// counters from one.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Counter returns a counter value from the snapshot (0 when absent).
func (s Snapshot) Counter(name string) int64 { return s.Counters[name] }

// Histogram returns a histogram summary from the snapshot (zero when
// absent).
func (s Snapshot) Histogram(name string) HistogramSnapshot { return s.Histograms[name] }

// Snapshot captures every registered metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	entries := make([]*entry, 0, len(names))
	for _, n := range names {
		entries = append(entries, r.entries[n])
	}
	r.mu.RUnlock()

	snap := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, e := range entries {
		switch m := e.m.(type) {
		case *Counter:
			snap.Counters[e.name] = m.Value()
		case *Gauge:
			snap.Gauges[e.name] = m.Value()
		case *Histogram:
			snap.Histograms[e.name] = histSnap(m)
		case *GaugeVec:
			for _, val := range m.sortedValues() {
				snap.Gauges[childKey(e.name, m.label, val)] = m.With(val).Value()
			}
		case *HistogramVec:
			for _, val := range m.sortedValues() {
				snap.Histograms[childKey(e.name, m.label, val)] = histSnap(m.With(val))
			}
		}
	}
	return snap
}

func childKey(name, label, value string) string {
	return fmt.Sprintf("%s{%s=%q}", name, label, value)
}

func histSnap(h *Histogram) HistogramSnapshot {
	return HistogramSnapshot{
		Count: h.Count(),
		Sum:   h.Sum(),
		P50:   h.Quantile(0.50),
		P90:   h.Quantile(0.90),
		P99:   h.Quantile(0.99),
	}
}
