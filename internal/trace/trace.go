// Package trace is the request-scoped tracing substrate for the
// measurement pipeline: dependency-free spans (trace/span IDs, parent
// links, wall-clock start and duration, key-value attributes) carried
// through the stages of the paper's Fig 1 system by context.Context.
//
// Aggregate metrics (internal/obs) say *how much* and *how fast*; traces
// say *why this one was slow*. One trace covers one measurement day:
// the experiment layer opens an `experiment.day` root span, the pipeline
// nests `measure.stage1/2/3` under it, the resolver nests
// `dnsclient.resolve` per sampled domain, and each datagram exchange
// nests a `transport.send` (or `transport.tcp`) leaf. Server-side,
// dnsserver opens small `dnsserver.handle` root traces for the same
// sampled names, so client and server views of a query correlate.
//
// Sampling is per-domain and deterministic: a domain name hashes to a
// point in [0,1) and is traced iff it falls below the configured rate,
// so the same domains are traced on every day (and on the server side),
// and an unsampled path costs one context lookup plus one hash — no
// allocation, no lock. Completed traces land in a bounded in-memory ring
// (served live by /debug/traces), optionally stream to JSONL, and
// accumulate into a Chrome trace_event file loadable in about:tracing
// and Perfetto. Spans slower than a configurable threshold are reported
// through the structured logger with their full root-to-leaf path.
package trace

import (
	"context"
	"fmt"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dpsadopt/internal/obs"
)

// TraceID identifies one trace (one measured day, or one server-side
// query). The zero value is invalid.
type TraceID uint64

// String renders the ID as 16 hex digits, the form used in exports,
// exemplars and logs.
func (t TraceID) String() string { return fmt.Sprintf("%016x", uint64(t)) }

// SpanID identifies one span within a trace. The zero value means "no
// parent" on a root span.
type SpanID uint64

// String renders the ID as 16 hex digits.
func (s SpanID) String() string { return fmt.Sprintf("%016x", uint64(s)) }

// Attr is one key-value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Str builds a string attribute.
func Str(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr {
	return Attr{Key: key, Value: strconv.FormatInt(value, 10)}
}

// SpanRecord is a completed span as stored in the ring and exports.
type SpanRecord struct {
	Trace    TraceID       `json:"-"`
	ID       SpanID        `json:"-"`
	Parent   SpanID        `json:"-"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration"`
	Attrs    []Attr        `json:"attrs,omitempty"`
}

// Trace is one completed trace: its spans in end order (the root span,
// which ends last, is the final element).
type Trace struct {
	ID    TraceID
	Spans []SpanRecord
}

// Root returns the root span record (zero Parent), or a zero record if
// the trace is empty.
func (t *Trace) Root() SpanRecord {
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if t.Spans[i].Parent == 0 {
			return t.Spans[i]
		}
	}
	return SpanRecord{}
}

// Span is a live span. A nil *Span is a valid no-op span: every method
// is nil-safe, so unsampled code paths carry nil through the context and
// pay nothing.
type Span struct {
	tr  *Tracer
	buf *traceBuf
	rec SpanRecord

	mu    sync.Mutex // guards rec.Attrs (workers may annotate concurrently)
	ended atomic.Bool
}

// traceBuf accumulates the finished spans of one in-flight trace.
type traceBuf struct {
	tr *Tracer
	id TraceID

	mu      sync.Mutex
	spans   []SpanRecord
	flushed bool
}

// TraceID returns the span's trace ID, or 0 for a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.rec.Trace
}

// SetAttr annotates the span; no-op on nil.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.rec.Attrs = append(s.rec.Attrs, attrs...)
	s.mu.Unlock()
}

// End finishes the span, recording its duration. Ending the root span
// completes the trace: it is pushed to the ring and exporters, and slow
// spans are logged. End is idempotent; no-op on nil.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.rec.Duration = time.Since(s.rec.Start)
	s.buf.add(s.rec)
	if s.rec.Parent == 0 {
		s.buf.flush()
	}
}

func (b *traceBuf) add(rec SpanRecord) {
	b.mu.Lock()
	if !b.flushed {
		b.spans = append(b.spans, rec)
	}
	b.mu.Unlock()
}

// flush hands the completed trace to the tracer. Spans still open when
// the root ends (there should be none in a well-nested pipeline) are
// dropped.
func (b *traceBuf) flush() {
	b.mu.Lock()
	if b.flushed {
		b.mu.Unlock()
		return
	}
	b.flushed = true
	spans := b.spans
	b.spans = nil
	b.mu.Unlock()
	b.tr.complete(&Trace{ID: b.id, Spans: spans})
}

// Config tunes a Tracer.
type Config struct {
	// Sample is the per-domain sampling rate in [0,1]. Root spans started
	// explicitly (per-day spans) are always recorded; SampleName gates
	// the per-domain subtrees and server-side traces.
	Sample float64
	// Slow, when positive, logs every completed span whose duration
	// meets or exceeds it, with the full span path.
	Slow time.Duration
	// RingSize bounds the in-memory ring of recent traces (default 64).
	RingSize int
	// Exporters receive every completed trace.
	Exporters []Exporter
}

// Tracer creates and collects traces. All methods are safe for
// concurrent use; a nil *Tracer is a valid disabled tracer.
type Tracer struct {
	sample    float64
	slow      time.Duration
	ring      *Ring
	exporters []Exporter
	seed      maphash.Seed
	ids       atomic.Uint64

	mu     sync.Mutex // serializes exporter writes and Close
	closed bool
}

// New creates a tracer.
func New(cfg Config) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = 64
	}
	return &Tracer{
		sample:    cfg.Sample,
		slow:      cfg.Slow,
		ring:      NewRing(cfg.RingSize),
		exporters: cfg.Exporters,
		seed:      maphash.MakeSeed(),
	}
}

// defaultTracer is the process-wide tracer used by layers that start
// root spans without a caller-supplied context (dnsserver). nil = off.
var defaultTracer atomic.Pointer[Tracer]

// SetDefault installs the process-wide tracer (nil disables it).
func SetDefault(t *Tracer) { defaultTracer.Store(t) }

// Default returns the process-wide tracer, possibly nil.
func Default() *Tracer { return defaultTracer.Load() }

// Ring returns the tracer's ring of recent traces (nil for nil tracer).
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// nextID yields a process-unique non-zero ID. IDs are sequential from a
// random-ish base derived from the tracer seed; determinism across runs
// is not needed (the run's outputs embed whatever IDs were assigned).
func (t *Tracer) nextID() uint64 {
	n := t.ids.Add(1)
	var h maphash.Hash
	h.SetSeed(t.seed)
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(n >> (8 * i))
	}
	h.Write(b[:])
	id := h.Sum64()
	if id == 0 {
		id = n
	}
	return id
}

// SampleName reports whether the given name (a domain, typically) falls
// inside the sampling rate. Deterministic per tracer instance: the same
// name gives the same answer for the tracer's lifetime, so a sampled
// domain is traced on every day of a run. Nil-safe (false).
func (t *Tracer) SampleName(name string) bool {
	if t == nil || t.sample <= 0 {
		return false
	}
	if t.sample >= 1 {
		return true
	}
	var h maphash.Hash
	h.SetSeed(t.seed)
	h.WriteString(name)
	// Map the hash to [0,1) and compare against the rate.
	return float64(h.Sum64()>>11)/float64(1<<53) < t.sample
}

// StartRoot begins a new trace with a root span and returns a context
// carrying it. On a nil tracer it returns ctx and a nil span.
func (t *Tracer) StartRoot(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	buf := &traceBuf{tr: t, id: TraceID(t.nextID())}
	sp := &Span{
		tr:  t,
		buf: buf,
		rec: SpanRecord{
			Trace: buf.id,
			ID:    SpanID(t.nextID()),
			Name:  name,
			Start: time.Now(),
			Attrs: attrs,
		},
	}
	return ContextWithSpan(ctx, sp), sp
}

// complete files a finished trace: ring, exporters, slow-span log.
func (t *Tracer) complete(tr *Trace) {
	if len(tr.Spans) == 0 {
		return
	}
	t.ring.Add(tr)
	t.mu.Lock()
	if !t.closed {
		for _, e := range t.exporters {
			e.Export(tr)
		}
	}
	t.mu.Unlock()
	if t.slow > 0 {
		t.logSlow(tr)
	}
}

// logSlow reports spans at or above the slow threshold with their full
// root-to-leaf path.
func (t *Tracer) logSlow(tr *Trace) {
	byID := make(map[SpanID]*SpanRecord, len(tr.Spans))
	for i := range tr.Spans {
		byID[tr.Spans[i].ID] = &tr.Spans[i]
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.Duration < t.slow {
			continue
		}
		path := sp.Name
		for p := sp.Parent; p != 0; {
			parent, ok := byID[p]
			if !ok {
				break
			}
			path = parent.Name + " > " + path
			p = parent.Parent
		}
		obs.Logger().Warn("slow span",
			"trace", sp.Trace.String(),
			"span", sp.ID.String(),
			"path", path,
			"duration", sp.Duration.Round(time.Microsecond).String(),
			"attrs", attrString(sp.Attrs),
		)
	}
}

func attrString(attrs []Attr) string {
	out := ""
	for i, a := range attrs {
		if i > 0 {
			out += " "
		}
		out += a.Key + "=" + a.Value
	}
	return out
}

// Close flushes and closes every exporter. The tracer stops exporting
// afterwards (ring and sampling keep working, so a still-draining
// pipeline cannot write to closed files).
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var first error
	for _, e := range t.exporters {
		if err := e.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// ---- context propagation ----

type ctxKey struct{}

// ContextWithSpan returns a context carrying sp as the active span.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartSpan begins a child of the context's active span. With no active
// span (or a nil tracer) it returns ctx unchanged and a nil span, so
// callers need no conditional: Start, annotate, End.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := &Span{
		tr:  parent.tr,
		buf: parent.buf,
		rec: SpanRecord{
			Trace:  parent.rec.Trace,
			ID:     SpanID(parent.tr.nextID()),
			Parent: parent.rec.ID,
			Name:   name,
			Start:  time.Now(),
			Attrs:  attrs,
		},
	}
	return ContextWithSpan(ctx, sp), sp
}

// ForDomain applies per-domain sampling: if the context carries an
// active span but name falls outside the sampling rate, the returned
// context has the span suppressed, so the domain's subtree (resolver and
// transport spans) is not recorded. The day-level spans are unaffected.
func ForDomain(ctx context.Context, name string) context.Context {
	sp := SpanFromContext(ctx)
	if sp == nil {
		return ctx
	}
	if sp.tr.SampleName(name) {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, (*Span)(nil))
}

// ---- ring of recent traces ----

// Ring is a bounded, concurrency-safe ring of recently completed traces.
type Ring struct {
	mu   sync.Mutex
	buf  []*Trace
	next int
	n    int
}

// NewRing creates a ring holding up to size traces.
func NewRing(size int) *Ring {
	if size <= 0 {
		size = 1
	}
	return &Ring{buf: make([]*Trace, size)}
}

// Add inserts a completed trace, evicting the oldest when full.
func (r *Ring) Add(t *Trace) {
	r.mu.Lock()
	r.buf[r.next] = t
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Recent returns up to n traces, newest first. n <= 0 returns all held.
func (r *Ring) Recent(n int) []*Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Len returns the number of traces currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
