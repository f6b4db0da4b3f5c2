package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestObserveExemplarKeepsSlowest(t *testing.T) {
	h := newHistogram([]float64{0.1, 1})
	h.ObserveExemplar(0.05, "aaaa")
	h.ObserveExemplar(0.08, "bbbb") // slower, same bucket: replaces
	h.ObserveExemplar(0.02, "cccc") // faster: kept out
	h.ObserveExemplar(0.5, "dddd")  // second bucket
	h.Observe(2.5)                  // overflow bucket, no exemplar

	ex := h.Exemplars()
	if len(ex) != 3 {
		t.Fatalf("exemplar slots = %d, want 3", len(ex))
	}
	if ex[0] == nil || ex[0].TraceID != "bbbb" || ex[0].Value != 0.08 {
		t.Errorf("bucket 0 exemplar = %+v, want bbbb@0.08", ex[0])
	}
	if ex[1] == nil || ex[1].TraceID != "dddd" {
		t.Errorf("bucket 1 exemplar = %+v, want dddd", ex[1])
	}
	if ex[2] != nil {
		t.Errorf("overflow bucket exemplar = %+v, want nil", ex[2])
	}
	if h.Count() != 5 {
		t.Errorf("count = %d, want 5 (exemplar observations count)", h.Count())
	}
}

func TestObserveExemplarEmptyTraceID(t *testing.T) {
	h := newHistogram([]float64{1})
	h.ObserveExemplar(0.5, "")
	if ex := h.Exemplars(); ex[0] != nil {
		t.Errorf("empty trace id stored an exemplar: %+v", ex[0])
	}
}

func TestObserveExemplarConcurrent(t *testing.T) {
	h := newHistogram([]float64{1})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.ObserveExemplar(float64(i%100)/100, "t")
			}
		}(g)
	}
	wg.Wait()
	if ex := h.Exemplars()[0]; ex == nil || ex.Value != 0.99 {
		t.Errorf("slowest exemplar = %+v, want 0.99", ex)
	}
}

func TestWritePrometheusExemplarSuffix(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("demo_seconds", "demo", []float64{0.1, 1})
	h.ObserveExemplar(0.05, "00000000deadbeef")

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `# {trace_id="00000000deadbeef"} 0.05`) {
		t.Errorf("exposition lacks exemplar suffix:\n%s", out)
	}
	// Buckets without exemplars stay plain.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `le="1"`) && strings.Contains(line, "trace_id") {
			t.Errorf("empty bucket got an exemplar: %s", line)
		}
	}
}
