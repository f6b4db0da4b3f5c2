package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestMetricsRoundTrip serves a registry over httptest and asserts the
// scraped exposition is well-formed Prometheus text.
func TestMetricsRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("dns_client_queries_total", "query datagrams sent").Add(9)
	r.Gauge("inflight_queries", "queries being answered").Set(2)
	h := r.Histogram("dns_client_query_seconds", "exchange latency", []float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.05)

	ts := httptest.NewServer(NewMux(r))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content-type = %q", ct)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE dns_client_queries_total counter",
		"dns_client_queries_total 9",
		"# TYPE inflight_queries gauge",
		"inflight_queries 2",
		"# TYPE dns_client_query_seconds histogram",
		`dns_client_query_seconds_bucket{le="0.01"} 1`,
		`dns_client_query_seconds_bucket{le="+Inf"} 2`,
		"dns_client_query_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// expvar endpoint: valid JSON including the registry snapshot.
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(vars, &obj); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if _, ok := obj["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}

	// pprof index and a real profile endpoint.
	resp, err = http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/debug/pprof/goroutine")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(prof) == 0 {
		t.Errorf("goroutine profile: status %d, %d bytes", resp.StatusCode, len(prof))
	}
}

// TestServeLifecycle exercises the standalone Serve helper on an
// ephemeral port.
func TestServeLifecycle(t *testing.T) {
	r := NewRegistry()
	r.Counter("up_total", "").Inc()
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + s.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up_total 1") {
		t.Errorf("missing metric in %q", body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + s.Addr + "/metrics"); err == nil {
		t.Error("server still reachable after Close")
	}
}

// TestShutdownDrains proves the graceful path: a scrape in flight when
// Shutdown is called completes with its body, and only then does the
// listener die.
func TestShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{})
	Handle("/debug/slowtest", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
		w.Write([]byte("drained ok"))
	}))
	defer func() {
		extraMu.Lock()
		delete(extraHandlers, "/debug/slowtest")
		extraMu.Unlock()
	}()

	s, err := Serve("127.0.0.1:0", NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body string
		err  error
	}
	got := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + s.Addr + "/debug/slowtest")
		if err != nil {
			got <- result{err: err}
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- result{body: string(body)}
	}()
	<-started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// The in-flight request holds the drain open until released.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned (%v) before the in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	r := <-got
	if r.err != nil || r.body != "drained ok" {
		t.Fatalf("in-flight request: body=%q err=%v", r.body, r.err)
	}
	if _, err := http.Get("http://" + s.Addr + "/metrics"); err == nil {
		t.Error("server still reachable after Shutdown")
	}
}
