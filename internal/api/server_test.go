package api

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

func mustAddr(s string) netip.Addr { return netip.MustParseAddr(s) }

// fixtureStore builds a tiny dataset by hand: alpha.com uses the first
// provider (CNAME+NS) on days 0-2 with a method change on day 2,
// beta.com uses it via AS on day 0 only, gamma.com uses CloudFlare on
// days 1-2, and quiet.com never exhibits a reference.
func fixtureStore(t testing.TB) (*store.Store, *core.References) {
	t.Helper()
	refs := core.MustGroundTruth()
	p0 := refs.Providers[0] // Akamai: has ASNs, CNAME SLDs and NS SLDs
	cf := slices.IndexFunc(refs.Providers, func(p core.ProviderRefs) bool { return p.Name == "CloudFlare" })
	if cf < 0 {
		t.Fatal("no CloudFlare in ground truth")
	}
	pcf := refs.Providers[cf]

	s := store.New()
	for day := simtime.Day(0); day < 3; day++ {
		w := s.NewWriter("com", day)
		// alpha.com: CNAME on all days, NS only from day 2.
		w.AddStr("alpha.com", store.KindWWWCNAME, "www.alpha.com."+p0.CNAMESLDs[0])
		if day == 2 {
			w.AddStr("alpha.com", store.KindNS, "ns1."+p0.NSSLDs[0])
		}
		if day == 0 {
			w.AddAddr("beta.com", store.KindApexA, mustAddr("192.0.2.7"), []uint32{p0.ASNs[0]})
		}
		if day >= 1 {
			w.AddStr("gamma.com", store.KindNS, "ada.ns."+pcf.NSSLDs[0])
		}
		// quiet.com is measured but unprotected.
		w.AddAddr("quiet.com", store.KindApexA, mustAddr("198.51.100.9"), nil)
		w.Commit()
	}
	return s, refs
}

func fixtureServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, refs := fixtureStore(t)
	return NewServer(NewIndex(s, refs), cfg)
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Code, rec.Body.String()
}

func decodeAs[T any](t *testing.T, body string) T {
	t.Helper()
	var v T
	if err := json.Unmarshal([]byte(body), &v); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return v
}

func TestDomainRoute(t *testing.T) {
	srv := fixtureServer(t, Config{})
	code, body := get(t, srv.Handler(), "/v1/domain/alpha.com")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	h := decodeAs[DomainHistory](t, body)
	if h.Domain != "alpha.com" || h.Days != 3 {
		t.Fatalf("history = %+v", h)
	}
	if h.FirstSeen != simtime.Day(0).String() || h.LastSeen != simtime.Day(2).String() {
		t.Fatalf("window = %s..%s", h.FirstSeen, h.LastSeen)
	}
	if len(h.Providers) != 1 {
		t.Fatalf("providers = %+v", h.Providers)
	}
	p := h.Providers[0]
	if p.Provider != "Akamai" || p.Methods != "CNAME+NS" || p.Days != 3 {
		t.Fatalf("use = %+v", p)
	}
	// The method change on day 2 splits the history into two intervals.
	if len(p.Intervals) != 2 || p.Intervals[0].Methods != "CNAME" || p.Intervals[1].Methods != "CNAME+NS" {
		t.Fatalf("intervals = %+v", p.Intervals)
	}
	if p.PeakRun != 2 {
		t.Fatalf("peak run = %d", p.PeakRun)
	}

	// Uppercase and trailing-dot forms normalise to the same domain.
	if code, _ := get(t, srv.Handler(), "/v1/domain/ALPHA.com."); code != http.StatusOK {
		t.Fatalf("normalised lookup status = %d", code)
	}
}

func TestDomainRouteErrors(t *testing.T) {
	srv := fixtureServer(t, Config{})
	for path, want := range map[string]int{
		"/v1/domain/quiet.com":                   http.StatusNotFound, // measured, never protected
		"/v1/domain/nosuch.example":              http.StatusNotFound,
		"/v1/domain/" + strings.Repeat("x", 300): http.StatusBadRequest,
		"/v1/domain/bad%5Cname":                  http.StatusBadRequest,
		"/v1/nosuchroute":                        http.StatusNotFound, // mux-level, no API body
	} {
		code, body := get(t, srv.Handler(), path)
		if code != want {
			t.Errorf("%s: status = %d want %d (%s)", path, code, want, body)
		}
		// API-level failures carry the uniform {"error": ...} body.
		if strings.HasPrefix(path, "/v1/domain/") && !strings.Contains(body, `"error"`) {
			t.Errorf("%s: no error body: %s", path, body)
		}
	}
}

func TestSeriesRoute(t *testing.T) {
	srv := fixtureServer(t, Config{})
	code, body := get(t, srv.Handler(), "/v1/provider/cloudflare/series")
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	s := decodeAs[ProviderSeries](t, body)
	if s.Provider != "CloudFlare" {
		t.Fatalf("provider = %q (case-insensitive match expected)", s.Provider)
	}
	if len(s.Raw) != 3 || len(s.Smoothed) != 3 || len(s.Days) != 3 {
		t.Fatalf("series lengths: %+v", s)
	}
	want := []int64{0, 1, 1} // gamma.com from day 1
	for i, v := range want {
		if s.Raw[i] != v {
			t.Fatalf("raw = %v, want %v", s.Raw, want)
		}
	}
	if code, _ := get(t, srv.Handler(), "/v1/provider/nonesuch/series"); code != http.StatusNotFound {
		t.Fatalf("unknown provider status = %d", code)
	}
	// Provider names with spaces work URL-encoded.
	if code, _ := get(t, srv.Handler(), "/v1/provider/F5%20Networks/series"); code != http.StatusOK {
		t.Fatalf("encoded provider status = %d", code)
	}
}

func TestDayRoute(t *testing.T) {
	srv := fixtureServer(t, Config{})
	code, body := get(t, srv.Handler(), "/v1/day/"+simtime.Day(0).String())
	if code != http.StatusOK {
		t.Fatalf("status = %d, body %s", code, body)
	}
	d := decodeAs[DayInfo](t, body)
	if d.Measured != 3 { // alpha, beta, quiet
		t.Fatalf("measured = %d", d.Measured)
	}
	if d.AnyUse != 2 || d.Providers["Akamai"] != 2 || d.Providers["CloudFlare"] != 0 {
		t.Fatalf("day info = %+v", d)
	}
	if code, _ := get(t, srv.Handler(), "/v1/day/not-a-date"); code != http.StatusBadRequest {
		t.Fatalf("bad date status = %d", code)
	}
	if code, _ := get(t, srv.Handler(), "/v1/day/1999-01-01"); code != http.StatusNotFound {
		t.Fatalf("absent day status = %d", code)
	}
}

func TestStatsRoute(t *testing.T) {
	srv := fixtureServer(t, Config{})
	code, body := get(t, srv.Handler(), "/v1/stats")
	if code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	st := decodeAs[Stats](t, body)
	if st.DomainsDetected != 3 || st.DaysIndexed != 3 || st.ExampleDomain != "alpha.com" {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Providers) != 9 || len(st.Sources) != 1 || st.Sources[0] != "com" {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRateLimit429(t *testing.T) {
	srv := fixtureServer(t, Config{QPS: 0.001, Burst: 2})
	shed := 0
	for i := 0; i < 5; i++ {
		code, _ := get(t, srv.Handler(), "/v1/stats")
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	// Two burst tokens (plus at most a refill rounding), the rest shed.
	if shed < 2 {
		t.Fatalf("shed %d of 5, want >= 2", shed)
	}
}

// TestOverloadSheds503 drives the concurrency gate to saturation with a
// deliberately slow in-flight request and proves the waiting request is
// shed with 503 at its deadline while the occupant still completes.
func TestOverloadSheds503(t *testing.T) {
	srv := fixtureServer(t, Config{MaxInflight: 1, Timeout: 60 * time.Millisecond})
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	var slow atomic.Bool
	srv.testHook = func(string) {
		entered <- struct{}{}
		if slow.CompareAndSwap(true, false) {
			<-block
		}
	}
	slow.Store(true)

	type res struct {
		code int
	}
	results := make(chan res, 2)
	go func() {
		code, _ := get(t, srv.Handler(), "/v1/stats")
		results <- res{code}
	}()
	<-entered // the slow request holds the gate
	go func() {
		code, _ := get(t, srv.Handler(), "/v1/domain/alpha.com")
		results <- res{code}
	}()

	first := <-results // the waiter sheds at its 60ms deadline
	if first.code != http.StatusServiceUnavailable {
		t.Fatalf("waiting request status = %d, want 503", first.code)
	}
	close(block)
	second := <-results // the occupant finishes normally
	if second.code != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", second.code)
	}
}

// TestOverloadShedsOnClientGone: a request waiting on a full gate is
// shed with 503 as soon as its client goes away, not at its deadline.
func TestOverloadShedsOnClientGone(t *testing.T) {
	const timeout = 10 * time.Second
	srv := fixtureServer(t, Config{MaxInflight: 1, Timeout: timeout})
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	srv.testHook = func(route string) {
		if route == "stats" {
			entered <- struct{}{}
			<-block
		}
	}
	occupant := make(chan int, 1)
	go func() {
		code, _ := get(t, srv.Handler(), "/v1/stats")
		occupant <- code
	}()
	<-entered // the occupant holds the only slot

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodGet, "/v1/domain/alpha.com", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	shed0 := mShed.Value()
	start := time.Now()
	time.AfterFunc(20*time.Millisecond, cancel)
	srv.Handler().ServeHTTP(rec, req)
	if waited := time.Since(start); waited > timeout/2 {
		t.Fatalf("waiter shed after %v, want well before the %v deadline", waited, timeout)
	}
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("waiter whose client left got %d, want 503", rec.Code)
	}
	if d := mShed.Value() - shed0; d != 1 {
		t.Fatalf("api_shed_total moved by %d, want 1", d)
	}
	close(block)
	if code := <-occupant; code != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", code)
	}
}

// TestErrorBodies pins every error answer byte for byte: they are
// rendered once, not per response.
func TestErrorBodies(t *testing.T) {
	for _, tc := range []struct {
		val    response
		status int
		body   string
	}{
		{respRateLimited, 429, `{"error":"rate limit exceeded"}`},
		{respOverloaded, 503, `{"error":"server overloaded"}`},
		{respEncodingFailed, 500, `{"error":"encoding failed"}`},
		{respBadDomain, 400, `{"error":"invalid domain name"}`},
		{respNoDomain, 404, `{"error":"domain has no recorded DPS references"}`},
		{respBadProvider, 400, `{"error":"invalid provider name"}`},
		{respUnknownProvider, 404, `{"error":"unknown provider"}`},
		{respBadDate, 400, `{"error":"invalid date, want YYYY-MM-DD"}`},
		{respNoDay, 404, `{"error":"day not in dataset"}`},
	} {
		if tc.val.status != tc.status || string(tc.val.body) != tc.body+"\n" {
			t.Errorf("got %d %q, want %d %q", tc.val.status, tc.val.body, tc.status, tc.body+"\n")
		}
	}
	// The same bytes reach the client.
	srv := fixtureServer(t, Config{})
	for path, want := range map[string]string{
		"/v1/domain/nosuch.example":           `{"error":"domain has no recorded DPS references"}`,
		"/v1/provider/NoSuchCDN/series":       `{"error":"unknown provider"}`,
		"/v1/day/not-a-date":                  `{"error":"invalid date, want YYYY-MM-DD"}`,
		"/v1/day/" + simtime.Day(99).String(): `{"error":"day not in dataset"}`,
	} {
		if _, body := get(t, srv.Handler(), path); body != want+"\n" {
			t.Errorf("%s: body %q, want %q", path, body, want+"\n")
		}
	}
}

// TestCacheHitPath asserts the second identical request is served from
// the index generation's memo (counter-visible), that fixed answers and
// /v1/stats are neither memoized nor counted, and that a negative
// CacheEntries renders every answer.
func TestCacheHitPath(t *testing.T) {
	srv := fixtureServer(t, Config{})
	hits0, miss0 := mCacheHits.Value(), mCacheMisses.Value()
	if code, _ := get(t, srv.Handler(), "/v1/domain/alpha.com"); code != 200 {
		t.Fatal("first request failed")
	}
	if code, _ := get(t, srv.Handler(), "/v1/domain/alpha.com"); code != 200 {
		t.Fatal("second request failed")
	}
	if d := mCacheMisses.Value() - miss0; d != 1 {
		t.Fatalf("misses = %d, want 1", d)
	}
	if d := mCacheHits.Value() - hits0; d != 1 {
		t.Fatalf("hits = %d, want 1", d)
	}

	// A 404 is a fixed answer and /v1/stats is rendered per request:
	// neither touches the memo counters.
	hits1, miss1 := mCacheHits.Value(), mCacheMisses.Value()
	for _, path := range []string{"/v1/domain/nosuch.example", "/v1/stats"} {
		get(t, srv.Handler(), path)
		get(t, srv.Handler(), path)
	}
	if mCacheHits.Value() != hits1 || mCacheMisses.Value() != miss1 {
		t.Fatalf("fixed answers moved the memo counters: hits +%d, misses +%d",
			mCacheHits.Value()-hits1, mCacheMisses.Value()-miss1)
	}

	// A memo-disabled server renders every time and never counts.
	off := fixtureServer(t, Config{CacheEntries: -1})
	var renders atomic.Int64
	off.renderHook = func() { renders.Add(1) }
	hits2, miss2 := mCacheHits.Value(), mCacheMisses.Value()
	get(t, off.Handler(), "/v1/domain/alpha.com")
	get(t, off.Handler(), "/v1/domain/alpha.com")
	if renders.Load() != 2 {
		t.Fatalf("disabled memo rendered %d times, want 2", renders.Load())
	}
	if mCacheHits.Value() != hits2 || mCacheMisses.Value() != miss2 {
		t.Fatal("disabled memo moved the counters")
	}
}

// TestConcurrentMixedKeys hammers the full stack from many goroutines
// under -race: every response must be valid and identical per key.
func TestConcurrentMixedKeys(t *testing.T) {
	srv := fixtureServer(t, Config{MaxInflight: 32, CacheEntries: 8})
	paths := []string{
		"/v1/domain/alpha.com",
		"/v1/domain/beta.com",
		"/v1/domain/gamma.com",
		"/v1/provider/Akamai/series",
		"/v1/day/" + simtime.Day(1).String(),
		"/v1/stats",
	}
	// /v1/stats embeds live process state (uptime, RSS) and the rolling
	// observatory digest, both volatile by design; strip them so the
	// comparison covers the dataset facts.
	stable := func(p, body string) string {
		if p != "/v1/stats" {
			return body
		}
		var m map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &m); err != nil {
			t.Errorf("%s: invalid JSON: %v", p, err)
			return body
		}
		delete(m, "process")
		delete(m, "observatory")
		out, _ := json.Marshal(m)
		return string(out)
	}
	want := make(map[string]string)
	for _, p := range paths {
		code, body := get(t, srv.Handler(), p)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", p, code)
		}
		want[p] = stable(p, body)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := paths[(seed+i)%len(paths)]
				code, body := get(t, srv.Handler(), p)
				if code != http.StatusOK || stable(p, body) != want[p] {
					t.Errorf("%s: code %d, body diverged", p, code)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
