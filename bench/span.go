package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the call (never inside the program). Name is "layer.operation"; the
// layer is the package name. Times are offsets from the recorder's
// epoch.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 = root
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// the tracing-off mode: every method is a no-op that still runs the
// wrapped call, so one driver serves traced and untraced passes.
type Recorder struct {
	mu    sync.Mutex
	epoch time.Time
	run   string
	spans []Span
}

func newRecorder(run string) *Recorder {
	return &Recorder{epoch: time.Now(), run: run}
}

// ref is an open span. The zero parent (nil) is the root.
type ref struct {
	rec *Recorder
	id  int
}

// start opens a span under parent.
func (r *Recorder) start(parent *ref, name string) *ref {
	if r == nil {
		return nil
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	r.spans = append(r.spans, Span{ID: id, Parent: pid, Run: r.run, Name: name, Start: now, End: -1})
	return &ref{rec: r, id: id}
}

func (s *ref) end() {
	if s == nil {
		return
	}
	now := time.Since(s.rec.epoch)
	s.rec.mu.Lock()
	s.rec.spans[s.id-1].End = now
	s.rec.mu.Unlock()
}

// do wraps one call in a span.
func (r *Recorder) do(parent *ref, name string, fn func()) {
	sp := r.start(parent, name)
	fn()
	sp.end()
}

// add records a span whose duration was read from one of the program's
// own instruments (for example core.RangeStats.Wall) instead of being
// clocked here; it ends now.
func (r *Recorder) add(parent *ref, name string, d time.Duration) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: pid, Run: r.run, Name: name, Start: now - d, End: now})
}

func (r *Recorder) snapshot() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children. Overlapping children (two
// goroutines under one parent) are counted once, and a child is clipped
// to its parent's interval.
func selfTimes(spans []Span) map[int]time.Duration {
	type iv struct{ lo, hi time.Duration }
	kids := make(map[int][]iv)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], iv{lo, hi})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, edge time.Duration
		edge = s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// ledger sums self time per layer over the spans below root (root's own
// self time is reported under the layer "bench": the driver's glue that
// no layer span covers).
type ledger struct {
	Wall   time.Duration
	Layers map[string]time.Duration
}

func buildLedger(all []Span, root int) ledger {
	spans := spanSet(all).under(root)
	self := selfTimes(spans)
	l := ledger{Layers: make(map[string]time.Duration)}
	for _, s := range spans {
		if s.ID == root {
			l.Wall = s.dur()
			l.Layers["bench"] += self[s.ID]
			continue
		}
		l.Layers[layerOf(s.Name)] += self[s.ID]
	}
	return l
}

// unattributed is the share of the root's wall that no layer span
// covers. With concurrent children the layer sum can exceed the wall;
// the share is then reported as the (negative) excess.
func (l ledger) unattributed() float64 {
	if l.Wall <= 0 {
		return 0
	}
	var sum time.Duration
	for layer, d := range l.Layers {
		if layer != "bench" {
			sum += d
		}
	}
	return float64(l.Wall-sum) / float64(l.Wall)
}

// spanSet answers the per-layer metric queries over one run's spans.
type spanSet []Span

// under returns root and every span below it.
func (ss spanSet) under(root int) spanSet {
	inTree := map[int]bool{root: true}
	var out spanSet
	// Spans are appended in start order, so a parent precedes its children.
	for _, s := range ss {
		if s.ID == root || inTree[s.Parent] {
			inTree[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}

func (ss spanSet) total(name string) time.Duration {
	var d time.Duration
	for _, s := range ss {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

func (ss spanSet) durations(name string) []float64 {
	var out []float64
	for _, s := range ss {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}
