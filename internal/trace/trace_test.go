package trace

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"dpsadopt/internal/obs"
)

func TestSpanNesting(t *testing.T) {
	tr := New(Config{Sample: 1})
	ctx, root := tr.StartRoot(context.Background(), "experiment.day", Str("day", "100"))
	ctx2, stage := StartSpan(ctx, "measure.stage2")
	_, leaf := StartSpan(ctx2, "dnsclient.resolve", Str("name", "examp.le"))
	leaf.End()
	stage.End()
	root.End()

	got := tr.Ring().Recent(0)
	if len(got) != 1 {
		t.Fatalf("ring holds %d traces, want 1", len(got))
	}
	spans := got[0].Spans
	if len(spans) != 3 {
		t.Fatalf("trace has %d spans, want 3", len(spans))
	}
	// Spans land in end order: leaf, stage, root.
	if spans[2].Name != "experiment.day" || spans[2].Parent != 0 {
		t.Errorf("root = %q parent %v, want experiment.day with no parent", spans[2].Name, spans[2].Parent)
	}
	if spans[1].Parent != spans[2].ID {
		t.Errorf("stage parent = %v, want root %v", spans[1].Parent, spans[2].ID)
	}
	if spans[0].Parent != spans[1].ID {
		t.Errorf("leaf parent = %v, want stage %v", spans[0].Parent, spans[1].ID)
	}
	for _, sp := range spans {
		if sp.Trace != got[0].ID {
			t.Errorf("span %s carries trace %v, want %v", sp.Name, sp.Trace, got[0].ID)
		}
	}
	if got[0].Root().Name != "experiment.day" {
		t.Errorf("Root() = %q", got[0].Root().Name)
	}
}

func TestEndIdempotent(t *testing.T) {
	tr := New(Config{})
	_, root := tr.StartRoot(context.Background(), "r")
	root.End()
	root.End()
	if n := tr.Ring().Len(); n != 1 {
		t.Fatalf("double End filed %d traces, want 1", n)
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartRoot(context.Background(), "x")
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	if tr.SampleName("a.b") || tr.Ring() != nil || tr.Close() != nil {
		t.Fatal("nil tracer methods not inert")
	}
	ctx2, child := StartSpan(ctx, "y")
	if child != nil || ctx2 != ctx {
		t.Fatal("StartSpan on span-less context not inert")
	}
	// Every nil-span method must be a no-op, not a panic.
	child.SetAttr(Str("k", "v"))
	child.End()
	if child.TraceID() != 0 {
		t.Fatal("nil span accessors not zero")
	}
}

func TestSampleNameDeterministic(t *testing.T) {
	tr := New(Config{Sample: 0.5})
	names := []string{"a.example", "b.example", "c.example", "d.example", "e.example", "f.example", "g.example", "h.example"}
	first := make(map[string]bool)
	for _, n := range names {
		first[n] = tr.SampleName(n)
	}
	for i := 0; i < 100; i++ {
		for _, n := range names {
			if tr.SampleName(n) != first[n] {
				t.Fatalf("SampleName(%q) flapped", n)
			}
		}
	}
	if !New(Config{Sample: 1}).SampleName("any.name") {
		t.Error("rate 1 must sample everything")
	}
	if New(Config{Sample: 0}).SampleName("any.name") {
		t.Error("rate 0 must sample nothing")
	}
}

func TestSampleRateRoughlyHonoured(t *testing.T) {
	tr := New(Config{Sample: 0.25})
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if tr.SampleName("dom" + string(rune('a'+i%26)) + strings.Repeat("x", i%17) + ".example") {
			hits++
		}
	}
	if frac := float64(hits) / n; frac < 0.15 || frac > 0.35 {
		t.Errorf("sampled fraction %.3f, want ~0.25", frac)
	}
}

func TestForDomainSuppression(t *testing.T) {
	tr := New(Config{Sample: 0})
	ctx, root := tr.StartRoot(context.Background(), "experiment.day")
	dctx := ForDomain(ctx, "unsampled.example")
	if sp := SpanFromContext(dctx); sp != nil {
		t.Fatal("unsampled domain context still carries a span")
	}
	_, child := StartSpan(dctx, "dnsclient.resolve")
	child.End() // must be a no-op nil span
	root.End()
	got := tr.Ring().Recent(1)
	if len(got) != 1 || len(got[0].Spans) != 1 {
		t.Fatalf("suppressed subtree leaked spans: %+v", got)
	}

	// A sampled name keeps the span intact.
	tr2 := New(Config{Sample: 1})
	ctx2, root2 := tr2.StartRoot(context.Background(), "experiment.day")
	if SpanFromContext(ForDomain(ctx2, "sampled.example")) == nil {
		t.Fatal("sampled domain lost its span")
	}
	root2.End()
}

func TestRingEviction(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(&Trace{ID: TraceID(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	got := r.Recent(0)
	want := []TraceID{5, 4, 3} // newest first, 1 and 2 evicted
	for i, tr := range got {
		if tr.ID != want[i] {
			t.Errorf("Recent[%d] = %v, want %v", i, tr.ID, want[i])
		}
	}
	if got := r.Recent(2); len(got) != 2 || got[0].ID != 5 {
		t.Errorf("Recent(2) = %+v", got)
	}
}

func TestSlowSpanLogged(t *testing.T) {
	var buf bytes.Buffer
	old := obs.Logger()
	obs.SetLogger(obs.NewLogger(&buf, slog.LevelInfo, false))
	defer obs.SetLogger(old)

	tr := New(Config{Slow: time.Microsecond})
	ctx, root := tr.StartRoot(context.Background(), "experiment.day")
	_, child := StartSpan(ctx, "dnsclient.resolve", Str("name", "slow.example"))
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()

	out := buf.String()
	if !strings.Contains(out, "slow span") {
		t.Fatalf("no slow-span log line in:\n%s", out)
	}
	if !strings.Contains(out, "experiment.day") || !strings.Contains(out, "dnsclient.resolve") {
		t.Errorf("slow-span log lacks full path:\n%s", out)
	}
	if !strings.Contains(out, root.TraceID().String()) {
		t.Errorf("slow-span log lacks trace id %s:\n%s", root.TraceID(), out)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New(Config{Sample: 1, RingSize: 8})
	ctx, root := tr.StartRoot(context.Background(), "experiment.day")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				_, sp := StartSpan(ctx, "dnsclient.resolve")
				sp.SetAttr(Int("j", int64(j)))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	got := tr.Ring().Recent(1)
	if len(got) != 1 || len(got[0].Spans) != 8*50+1 {
		t.Fatalf("got %d spans, want %d", len(got[0].Spans), 8*50+1)
	}
}

func TestDefaultTracer(t *testing.T) {
	old := Default()
	defer SetDefault(old)
	tr := New(Config{Sample: 1})
	SetDefault(tr)
	if Default() != tr {
		t.Fatal("Default did not return the installed tracer")
	}
	SetDefault(nil)
	if Default() != nil {
		t.Fatal("SetDefault(nil) did not disable")
	}
}

// Int formats with strconv; the value must read exactly as fmt's %d did.
func TestIntAttrFormat(t *testing.T) {
	for _, v := range []int64{0, 7, -1, 65535, math.MaxInt64, math.MinInt64} {
		if got, want := Int("k", v), (Attr{Key: "k", Value: fmt.Sprintf("%d", v)}); got != want {
			t.Errorf("Int(%d) = %+v, want %+v", v, got, want)
		}
	}
}
