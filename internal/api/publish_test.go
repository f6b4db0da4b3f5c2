package api

import (
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dpsadopt/internal/core"
	"dpsadopt/internal/simtime"
)

// publishFixture builds a server over the base partitions with a
// render-counting hook, plus the updates to publish later.
func publishFixture(t *testing.T, base, added []partKey) (*Server, []PartitionUpdate, *atomic.Int64) {
	t.Helper()
	refs := core.MustGroundTruth()
	baseStore, _ := buildBoth(t, refs, base)
	_, ups := buildBoth(t, refs, added)
	srv := NewServer(NewIndex(baseStore, refs), Config{ObservatoryOff: true})
	renders := &atomic.Int64{}
	srv.renderHook = func() { renders.Add(1) }
	return srv, ups, renders
}

// TestPublishInvalidationPrecision is the memo-precision contract:
// after publishing a delta for day D, every answer touching D (or a
// touched domain, or any provider series) is rendered again, and every
// other memoized answer survives as a hit. Each case publishes on a
// server of its own, since one case's render may fill another's slot
// (alpha.com and Alpha.COM. share one).
func TestPublishInvalidationPrecision(t *testing.T) {
	// Base: com days 0-2. Delta: day 3 from com AND net — so day 3 is
	// new, only-net.com flips 404→200, and day-0..2 aggregates are
	// untouched.
	base := []partKey{{"com", 0}, {"com", 1}, {"com", 2}}
	added := []partKey{{"com", 3}, {"net", 3}}

	cases := []struct {
		name        string
		path        string
		invalidated bool
	}{
		{"touched domain", "/v1/domain/alpha.com", true},
		{"touched domain, unnormalized key", "/v1/domain/Alpha.COM.", true},
		{"touched 404 domain now detected", "/v1/domain/only-net.com", true},
		{"unprotected domain 404", "/v1/domain/quiet.com", false},
		{"unknown domain 404", "/v1/domain/nosuch.example", false},
		{"untouched day", "/v1/day/2015-03-01", false},
		{"untouched day (last old)", "/v1/day/2015-03-03", false},
		{"new day 404 now indexed", "/v1/day/2015-03-04", true},
		{"series (smoothing is global)", "/v1/provider/Akamai/series", true},
		{"series of other provider", "/v1/provider/CloudFlare/series", true},
	}

	var srv *Server
	for _, tc := range cases {
		var ups []PartitionUpdate
		var renders *atomic.Int64
		srv, ups, renders = publishFixture(t, base, added)

		// Warm every answer, then prove each is memoized: a second round
		// of requests must render nothing.
		before := make(map[string]string)
		for _, c := range cases {
			_, body := get(t, srv.Handler(), c.path)
			before[c.path] = body
		}
		warm := renders.Load()
		for _, c := range cases {
			if _, body := get(t, srv.Handler(), c.path); body != before[c.path] {
				t.Fatalf("%s: unstable body before publish", c.path)
			}
		}
		if renders.Load() != warm {
			t.Fatalf("warm round rendered: %d → %d", warm, renders.Load())
		}

		next, delta := srv.Index().Apply(ups)
		srv.Publish(next, delta)

		r0 := renders.Load()
		_, body := get(t, srv.Handler(), tc.path)
		recomputed := renders.Load() > r0
		if recomputed != tc.invalidated {
			t.Errorf("%s (%s): recomputed=%v, want %v", tc.name, tc.path, recomputed, tc.invalidated)
		}
		if !tc.invalidated && body != before[tc.path] {
			t.Errorf("%s (%s): surviving answer changed body", tc.name, tc.path)
		}
	}

	// The transitions the delta promised actually happened.
	if code, body := get(t, srv.Handler(), "/v1/domain/only-net.com"); code != http.StatusOK || !strings.Contains(body, "only-net.com") {
		t.Fatalf("only-net.com after publish: %d %s", code, body)
	}
	if code, _ := get(t, srv.Handler(), "/v1/day/2015-03-04"); code != http.StatusOK {
		t.Fatalf("day 3 after publish: %d", code)
	}
	if code, _ := get(t, srv.Handler(), "/v1/domain/quiet.com"); code != http.StatusNotFound {
		t.Fatalf("quiet.com should remain 404: %d", code)
	}
}

// TestPublishFencesStaleFills pins the render/publish race: a render
// parked across a Publish answers from the generation it resolved and
// stores its body there, leaving the published generation unrendered;
// the next request renders that generation and shows the new day.
func TestPublishFencesStaleFills(t *testing.T) {
	// gamma.com is detected on every day from day 1, so day 2 touches it.
	srv, ups, renders := publishFixture(t,
		[]partKey{{"com", 0}, {"com", 1}},
		[]partKey{{"com", 2}})

	hold := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.renderHook = func() {
		renders.Add(1)
		once.Do(func() {
			close(entered)
			<-hold
		})
	}

	// A request resolves the old index and parks inside its render.
	done := make(chan struct{})
	var parked string
	go func() {
		defer close(done)
		_, parked = get(t, srv.Handler(), "/v1/domain/gamma.com")
	}()
	<-entered

	// The publish lands while the render is parked.
	old := srv.Index()
	next, delta := old.Apply(ups)
	srv.Publish(next, delta)
	close(hold)
	<-done

	if h := decodeAs[DomainHistory](t, parked); h.LastSeen != simtime.Day(1).String() {
		t.Fatalf("parked render answered last_seen %s, want the old generation's %s", h.LastSeen, simtime.Day(1))
	}
	if old.domains["gamma.com"].body.Load() == nil {
		t.Fatal("parked render did not memoize in the generation it resolved")
	}
	if next.domains["gamma.com"].body.Load() != nil {
		t.Fatal("parked render stored into the published generation")
	}

	r0 := renders.Load()
	_, body := get(t, srv.Handler(), "/v1/domain/gamma.com")
	if renders.Load() == r0 {
		t.Fatal("the published generation served a body it never rendered")
	}
	if h := decodeAs[DomainHistory](t, body); h.LastSeen != simtime.Day(2).String() {
		t.Fatalf("after publish: last_seen %s, want %s", h.LastSeen, simtime.Day(2))
	}
	// And now it is memoized.
	r1 := renders.Load()
	get(t, srv.Handler(), "/v1/domain/gamma.com")
	if renders.Load() != r1 {
		t.Fatal("post-publish render was not memoized")
	}
}

// TestPublishUnderConcurrentLoad hammers all four routes while days are
// applied and published one at a time; -race makes this the
// swap/memo memory-safety check. At the end every domain, day and
// series answer — many of them memoized by earlier generations — must
// equal, byte for byte, a server over a fresh NewIndex of the same
// partitions.
func TestPublishUnderConcurrentLoad(t *testing.T) {
	refs := core.MustGroundTruth()
	baseStore, _ := buildBoth(t, refs, []partKey{{"com", 0}})
	srv := NewServer(NewIndex(baseStore, refs), Config{ObservatoryOff: true})

	paths := []string{"/v1/stats", "/v1/domain/nosuch.example"}
	for _, d := range []string{"alpha.com", "beta.com", "gamma.com", "shared.com", "only-com.com", "quiet.com"} {
		paths = append(paths, "/v1/domain/"+d)
	}
	for day := simtime.Day(0); day <= 4; day++ {
		paths = append(paths, "/v1/day/"+day.String())
	}
	for i := range refs.Providers {
		paths = append(paths, "/v1/provider/"+url.PathEscape(refs.Providers[i].Name)+"/series")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				get(t, srv.Handler(), paths[(g+i)%len(paths)])
			}
		}(g)
	}

	all := []partKey{{"com", 0}}
	for day := 1; day <= 4; day++ {
		pk := partKey{"com", simtime.Day(day)}
		all = append(all, pk)
		_, ups := buildBoth(t, refs, []partKey{pk})
		next, delta := srv.Index().Apply(ups)
		srv.Publish(next, delta)
		// Render every answer of this generation, so the next one
		// inherits memoized slots for what it leaves untouched.
		for _, p := range paths {
			get(t, srv.Handler(), p)
		}
	}
	close(stop)
	wg.Wait()

	if got := srv.Index().Epoch(); got != 4 {
		t.Fatalf("final epoch = %d, want 4", got)
	}
	if _, ok := srv.Index().Day(4); !ok {
		t.Fatal("last published day missing")
	}

	fullStore, _ := buildBoth(t, refs, all)
	ref := NewServer(NewIndex(fullStore, refs), Config{ObservatoryOff: true})
	var want []string
	for _, d := range ref.Index().Domains() {
		want = append(want, "/v1/domain/"+d)
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, "/v1/stats") {
			want = append(want, p)
		}
	}
	for _, p := range want {
		wc, wb := get(t, ref.Handler(), p)
		gc, gb := get(t, srv.Handler(), p)
		if wc != gc || wb != gb {
			t.Errorf("%s: published %d %q, rebuilt %d %q", p, gc, gb, wc, wb)
		}
	}
}
