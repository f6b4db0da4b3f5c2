package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"dpsadopt/internal/api"
	"dpsadopt/internal/coord"
	"dpsadopt/internal/core"
	"dpsadopt/internal/follow"
	"dpsadopt/internal/obs"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
)

// serveSize sizes the serving workload: the fixture (Days in all, the
// server boots from the first BootDays and the rest are fed live) and
// how many read-only queries the ro phase sends.
type serveSize struct {
	Fixture   fixtureSize
	ROQueries int
}

// serveWorkload boots dpsapi's server from a dataset, queries it
// read-only, then keeps querying while a coordinator commits the
// remaining days one by one and a follower folds them into the served
// index. Load model: one closed-loop reader that calls the server's
// handler in-process (README.md says why not over a socket); the feed is
// a closed loop too (day d+1 is released when day d is queryable), so
// every ingest step is on the path that wall_s and write_s time.
type serveWorkload struct {
	size serveSize
	refs *core.References
	fx   *fixture

	wantIndex    string
	wantMeasured map[simtime.Day]int64
	bootKeys     []store.PartitionKey
	feed         [][]coord.Partition // one entry per fed day, in day order
	feedRows     int64
}

func (w *serveWorkload) setup(e *env) error {
	if w.fx != nil {
		os.RemoveAll(filepath.Dir(w.fx.full)) // the previous set-up's fixture
	}
	dir, err := e.mkdir("fixture")
	if err != nil {
		return err
	}
	if w.fx, err = buildFixture(e.seed, w.size.Fixture, dir); err != nil {
		return err
	}
	// The reference the drained server must equal: a batch index over
	// the whole fixture. It also says when a fed day is fully queryable.
	rd, err := store.Open(w.fx.full)
	if err != nil {
		return err
	}
	defer rd.Close()
	idx, err := api.NewIndexReader(rd, w.refs)
	if err != nil {
		return err
	}
	w.wantIndex = indexDigest(idx, w.refs)
	w.wantMeasured = make(map[simtime.Day]int64)
	for _, d := range idx.Days() {
		info, _ := idx.Day(d)
		w.wantMeasured[d] = info.Measured
	}
	w.bootKeys, w.feed, w.feedRows = nil, nil, 0
	firstFed := w.fx.start + simtime.Day(w.size.Fixture.BootDays)
	byDay := make(map[simtime.Day][]coord.Partition)
	for _, pi := range rd.Partitions() {
		if pi.Day < firstFed {
			w.bootKeys = append(w.bootKeys, pi.Key())
			continue
		}
		byDay[pi.Day] = append(byDay[pi.Day], coord.Partition{Source: pi.Source, Day: pi.Day})
		w.feedRows += int64(pi.Rows)
	}
	for d := firstFed; d < w.fx.start+simtime.Day(w.size.Fixture.Days); d++ {
		w.feed = append(w.feed, byDay[d])
	}
	return nil
}

// servePass is what one boot + ro + rw pass measured.
type servePass struct {
	bootS, roS, rwS float64
	allocMB         float64
	spoolBytes      int64

	roLat, rwLat []float64 // per-query latency, seconds
	fresh        []float64 // per fed day, release → queryable, seconds
	commit       []float64 // per partition, WorkFunc return → committed, seconds
	pollApply    []float64
	pollIdle     []float64
	apply        []float64 // Index.Apply, seconds (traced only)
	publish      []float64 // Server.Publish, seconds (traced only)
	lagMax       int
	// api response-cache hit share per phase (traced only).
	cacheHitRO, cacheHitRW float64
	attempts               int
	status                 follow.Status
	boot                   *api.Index
}

// tracedSink sits between the follower and the server on traced passes
// and clocks the two calls Poll makes through it: Index() immediately
// before Index.Apply, Publish immediately after.
type tracedSink struct {
	srv     *api.Server
	rec     *Recorder
	parent  *ref
	tIndex  time.Time
	apply   []float64
	publish []float64
}

func (s *tracedSink) Index() *api.Index {
	s.tIndex = time.Now()
	return s.srv.Index()
}

func (s *tracedSink) Publish(idx *api.Index, d *api.Delta) {
	applied := time.Since(s.tIndex)
	s.rec.add(s.parent, "api.apply", applied)
	t := time.Now()
	s.rec.do(s.parent, "api.publish", func() { s.srv.Publish(idx, d) })
	s.apply = append(s.apply, applied.Seconds())
	s.publish = append(s.publish, time.Since(t).Seconds())
}

// client is a keep-alive HTTP client of the booted server: the first
// response of the boot and the freshness probe of the rw phase go through it.
type client struct {
	hc   *http.Client
	base string
}

// get fetches one URL and reports the status (0 on transport error).
func (c *client) get(path string, body io.Writer) int {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	if _, err := io.Copy(body, resp.Body); err != nil {
		return 0
	}
	return resp.StatusCode
}

// reader is the one closed-loop reader of the ro and rw phases. It calls
// the server's handler — routing, admission, cache, handler, encoding —
// on its own goroutine, with no socket in between.
type reader struct{ h http.Handler }

// nullWriter is the reader's http.ResponseWriter: it keeps the status
// and drops the body.
type nullWriter struct {
	hdr  http.Header
	code int
}

func (w *nullWriter) Header() http.Header { return w.hdr }
func (w *nullWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}
func (w *nullWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}

// get serves one URL and reports the status.
func (r reader) get(path string) int {
	w := nullWriter{hdr: make(http.Header)}
	r.h.ServeHTTP(&w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.code
}

// requestMix is the seeded query population: every domain, day and
// provider the boot index serves, plus /v1/stats, in a seeded order and
// drawn Zipf(1.2) so a few keys are hot and most are rare.
type requestMix struct {
	urls []string
	zipf *rand.Zipf
}

func newRequestMix(idx *api.Index, refs *core.References, seed int64) *requestMix {
	var urls []string
	for _, d := range idx.Domains() {
		urls = append(urls, "/v1/domain/"+url.PathEscape(d))
	}
	for _, d := range idx.Days() {
		urls = append(urls, "/v1/day/"+d.String())
	}
	for i := range refs.Providers {
		urls = append(urls, "/v1/provider/"+url.PathEscape(refs.Providers[i].Name)+"/series")
	}
	urls = append(urls, "/v1/stats")
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(urls), func(i, j int) { urls[i], urls[j] = urls[j], urls[i] })
	return &requestMix{urls: urls, zipf: rand.NewZipf(rng, 1.2, 1, uint64(len(urls)-1))}
}

func (m *requestMix) next() string { return m.urls[m.zipf.Uint64()] }

func (w *serveWorkload) run(e *env, rec *Recorder, root *ref, t *tally) (servePass, error) {
	var p servePass
	ctx := context.Background()
	c0 := readClock()

	// Boot: what dpsapi does between exec and its first answer. The
	// references are built per pass, as a dpsapi process builds its own:
	// References caches one matcher per dictionary it has seen and never
	// drops it, so sharing one across passes would carry every earlier
	// pass's spool dictionaries (about 90 MB a pass) into the next.
	refs, err := core.GroundTruth()
	if err != nil {
		return p, err
	}
	var rd *store.Reader
	rec.do(root, "store.open", func() { rd, err = store.Open(w.fx.boot) })
	if err != nil {
		return p, err
	}
	rec.do(root, "api.index_build", func() { p.boot, err = api.NewIndexReader(rd, refs) })
	rd.Close()
	if err != nil {
		return p, err
	}
	srv := api.NewServer(p.boot, api.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return p, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(sctx)
		<-served
	}()
	cl := &client{
		hc:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
	}
	defer cl.hc.CloseIdleConnections()
	var status int
	rec.do(root, "api.first_response", func() { status = cl.get("/v1/stats", io.Discard) })
	t.add(1, b2i(status != http.StatusOK))
	c1 := readClock()
	// Response-cache counters at the phase borders, on traced passes only.
	cacheHits := func() (hits, lookups float64) {
		if rec == nil {
			return 0, 0
		}
		snap := obs.Default().Snapshot()
		h := float64(snap.Counter("api_cache_hits_total"))
		return h, h + float64(snap.Counter("api_cache_misses_total"))
	}
	h0, l0 := cacheHits()

	// ro: a fixed number of queries, nothing else running.
	mix := newRequestMix(p.boot, refs, e.seed)
	rdr := reader{srv.Handler()}
	p.roLat = make([]float64, 0, w.size.ROQueries)
	bad := 0
	rec.do(root, "api.ro_phase", func() {
		for i := 0; i < w.size.ROQueries; i++ {
			t0 := time.Now()
			if rdr.get(mix.next()) != http.StatusOK {
				bad++
			}
			p.roLat = append(p.roLat, time.Since(t0).Seconds())
		}
	})
	t.add(w.size.ROQueries, bad)
	c2 := readClock()
	h1, l1 := cacheHits()
	p.cacheHitRO = ratio(h1-h0, l1-l0)

	// rw: the same reader, now beside the feed.
	coordDir, err := e.mkdir("coord")
	if err != nil {
		return p, err
	}
	var sink follow.Sink = srv
	var ts *tracedSink
	if rec != nil {
		ts = &tracedSink{srv: srv, rec: rec}
		sink = ts
	}
	fol, err := follow.New(follow.Config{
		Target: coordDir, Refs: refs, Sink: sink,
		Workers: detectWorkers, CursorPath: follow.CursorAuto,
	})
	if err != nil {
		return p, err
	}
	fol.Seed(w.bootKeys)
	srv.SetFreshnessFunc(fol.Freshness)

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	rwBad := 0
	go func() {
		defer close(readerDone)
		sp := rec.start(root, "api.rw_reader")
		defer sp.end()
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			if rdr.get(mix.next()) != http.StatusOK {
				rwBad++
			}
			p.rwLat = append(p.rwLat, time.Since(t0).Seconds())
		}
	}()
	// The freshness probe asks over the socket, as a client of dpsapi would.
	feedErr := w.runFeed(ctx, rec, root, coordDir, fol, ts, cl, &p)
	close(stop)
	<-readerDone
	c3 := readClock()
	h2, l2 := cacheHits()
	p.cacheHitRW = ratio(h2-h1, l2-l1)
	if feedErr != nil {
		return p, feedErr
	}
	t.add(len(p.rwLat), rwBad)

	// Drain (untimed) and compare with the batch-built reference.
	for {
		n, err := fol.Poll(ctx)
		if err != nil {
			return p, err
		}
		if n == 0 {
			break
		}
	}
	p.status = fol.Status()
	fed := 0
	for _, day := range w.feed {
		fed += len(day)
	}
	t.add(fed, p.status.Skipped)
	t.check(fmt.Sprintf("serve_live follower lag %d, want 0", p.status.Lag), p.status.Lag == 0)
	t.check(fmt.Sprintf("serve_live applied %d partitions, want %d", p.status.Applied, fed), p.status.Applied == fed)
	t.digest("serve_live drained index vs NewIndexReader over the fixture", indexDigest(srv.Index(), refs), w.wantIndex)

	spools, _ := filepath.Glob(filepath.Join(coordDir, "spool", "*.dpsa"))
	for _, s := range spools {
		p.spoolBytes += fileSize(s)
	}
	if ts != nil {
		p.apply, p.publish = ts.apply, ts.publish
	}
	p.bootS = c1.t.Sub(c0.t).Seconds()
	p.roS = c2.t.Sub(c1.t).Seconds()
	p.rwS = c3.t.Sub(c2.t).Seconds()
	// Boot and ro only: the rw reader sends as many queries as the feed
	// leaves time for, so what rw allocates follows the machine's speed.
	p.allocMB = c2.allocMBSince(c0)
	os.RemoveAll(coordDir)
	return p, nil
}

// runFeed commits the fed days one after another. Each day gets its own
// coordinator over the shared directory — how a daily dpscoord run
// extends an existing journal — with one worker whose WorkFunc loads the
// day's partition from the fixture. While it commits, this goroutine
// drives Follower.Poll (1 ms idle sleep) and, after every apply, asks
// the server for the day until it reports the fixture's domain count.
func (w *serveWorkload) runFeed(ctx context.Context, rec *Recorder, root *ref, dir string, fol *follow.Follower, ts *tracedSink, probe *client, p *servePass) error {
	for i, parts := range w.feed {
		day := w.fx.start + simtime.Day(w.size.Fixture.BootDays+i)
		released := time.Now()
		daySpan := rec.start(root, "coord.day")
		var lastReturn time.Time
		work := func(_ context.Context, pt coord.Partition, _ int) (*store.Store, error) {
			if !lastReturn.IsZero() {
				p.commit = append(p.commit, time.Since(lastReturn).Seconds())
			}
			var s *store.Store
			var err error
			rec.do(daySpan, "store.load_partition", func() { s, err = store.LoadPartition(w.fx.full, pt.Source, pt.Day) })
			lastReturn = time.Now()
			return s, err
		}
		coordDone := make(chan error, 1)
		go func() {
			c, err := coord.New(coord.Config{Dir: dir, Workers: 1, Work: work}, parts)
			if err != nil {
				coordDone <- err
				return
			}
			err = c.Run(ctx)
			p.commit = append(p.commit, time.Since(lastReturn).Seconds())
			// Each day's coordinator replays the journal, so the last
			// one's ledger covers every partition fed so far.
			p.attempts = 0
			for _, st := range c.Ledger() {
				p.attempts += st.Attempts
			}
			coordDone <- err
		}()
		for queryable := false; !queryable; {
			if ts != nil {
				ts.parent = daySpan
			}
			t0 := time.Now()
			sp := rec.start(daySpan, "follow.poll")
			n, err := fol.Poll(ctx)
			sp.end()
			d := time.Since(t0).Seconds()
			if err != nil {
				<-coordDone
				return err
			}
			p.lagMax = max(p.lagMax, fol.Status().Lag)
			if n == 0 {
				p.pollIdle = append(p.pollIdle, d)
				time.Sleep(time.Millisecond)
				continue
			}
			p.pollApply = append(p.pollApply, d)
			var body bytes.Buffer
			rec.do(daySpan, "api.day_probe", func() {
				if probe.get("/v1/day/"+day.String(), &body) == http.StatusOK {
					var info api.DayInfo
					queryable = json.Unmarshal(body.Bytes(), &info) == nil && info.Measured == w.wantMeasured[day]
				}
			})
		}
		p.fresh = append(p.fresh, time.Since(released).Seconds())
		err := <-coordDone
		daySpan.end()
		if err != nil {
			return fmt.Errorf("coordinator day %s: %w", day, err)
		}
	}
	return nil
}

// roChunk is how many consecutive ro queries make one read_s sample.
const roChunk = 10000

// chunkSums adds vals up in consecutive groups of n; a short tail is
// dropped.
func chunkSums(vals []float64, n int) []float64 {
	var out []float64
	for ; len(vals) >= n; vals = vals[n:] {
		var sum float64
		for _, v := range vals[:n] {
			sum += v
		}
		out = append(out, sum)
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func (w *serveWorkload) pass(e *env, t *tally) (e2e, error) {
	p, err := w.run(e, nil, nil, t)
	if err != nil {
		return e2e{}, err
	}
	return e2e{
		wall: []float64{p.bootS + p.roS + p.rwS}, write: p.fresh, read: chunkSums(p.roLat, roChunk),
		allocMB:     p.allocMB,
		bytesPerRow: ratio(float64(p.spoolBytes), float64(w.feedRows)),
	}, nil
}

func (w *serveWorkload) traced(e *env, rec *Recorder, t *tally) (map[string]float64, error) {
	m := make(map[string]float64)
	// Four untraced and four traced passes, alternating, so that a slow
	// spell of the machine falls on both kinds; the layer numbers come
	// from the last traced pass.
	var tr servePass
	var wholeWall, tracedWall float64
	var root *ref
	var od obsDelta
	var c0, c1 clock
	for i := 0; i < 4; i++ {
		whole, err := w.run(e, nil, nil, t)
		if err != nil {
			return nil, err
		}
		wholeWall += whole.bootS + whole.roS + whole.rwS

		before := obs.Default().Snapshot()
		c0 = readClock()
		root = rec.start(nil, "bench.pass")
		tr, err = w.run(e, rec, root, t)
		root.end()
		if err != nil {
			return nil, err
		}
		c1 = readClock()
		od = obsDelta{before, obs.Default().Snapshot()}
		tracedWall += tr.bootS + tr.roS + tr.rwS
	}

	spans := spanSet(rec.snapshot()).under(root.id)
	led := buildLedger(spans, root.id)
	m["trace.overhead_frac"] = tracedWall/wholeWall - 1
	for layer, d := range led.Layers {
		m[layer+".self_s"] = d.Seconds()
	}
	m["store.open_ms"] = spans.total("store.open").Seconds() * 1e3
	m["store.bytes_read_mb"] = od.counter("store_reader_bytes_read_total") / (1 << 20)
	hits, decodes := od.counter("store_reader_cache_hits_total"), od.counter("store_reader_partitions_decoded_total")
	m["store.cache_hit_frac"] = ratio(hits, hits+decodes)
	m["store.crc_failures"] = od.counter("store_crc_failures_total")
	m["api.index_build_s"] = spans.total("api.index_build").Seconds()
	m["api.index_build_rows_per_s"] = ratio(float64(tr.boot.DetectStats().Rows), m["api.index_build_s"])

	m["api.ro_queries_per_s"] = ratio(float64(len(tr.roLat)), tr.roS)
	m["api.rw_queries_per_s"] = ratio(float64(len(tr.rwLat)), tr.rwS)
	m["api.rw_query_p50_us"] = median(tr.rwLat) * 1e6
	m["api.rw_query_p99_us"] = quantile(tr.rwLat, 0.99) * 1e6
	m["api.apply_ms"] = median(tr.apply) * 1e3
	m["api.publish_ms"] = median(tr.publish) * 1e3
	m["api.cache_hit_frac_ro"] = tr.cacheHitRO
	m["api.cache_hit_frac_rw"] = tr.cacheHitRW
	m["api.cache_invalidated"] = od.counter("api_cache_invalidated_total")
	m["api.rejected"] = od.counter("api_rate_limited_total") + od.counter("api_shed_total")

	m["follow.poll_apply_ms"] = median(tr.pollApply) * 1e3
	m["follow.poll_idle_us"] = median(tr.pollIdle) * 1e6
	m["follow.lag_max_partitions"] = float64(tr.lagMax)
	m["follow.skipped"] = float64(tr.status.Skipped)
	m["follow.fresh_p50_ms"] = median(tr.fresh) * 1e3
	hi, _ := highPercentile(tr.fresh)
	m["follow.fresh_high_ms"] = hi * 1e3
	m["coord.commit_ms"] = median(tr.commit) * 1e3
	m["coord.attempts_per_partition"] = ratio(float64(tr.attempts), float64(tr.status.Applied))

	w.microAPI(tr.boot, m)
	procMetrics(m, c0, c1)
	return m, nil
}

// microAPI times the index and the handlers directly (no socket, cache
// off), and the observatory's share of a handler call.
func (w *serveWorkload) microAPI(idx *api.Index, m map[string]float64) {
	domains := idx.Domains()
	if len(domains) == 0 {
		return
	}
	const lookups = 200000
	t0 := time.Now()
	for i := 0; i < lookups; i++ {
		idx.Domain(domains[i%len(domains)])
	}
	m["api.lookup_ns"] = float64(time.Since(t0).Nanoseconds()) / lookups

	serve := func(h http.Handler, path string, n int) time.Duration {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		return time.Since(t0)
	}
	bare := api.NewServer(idx, api.Config{CacheEntries: -1, ObservatoryOff: true}).Handler()
	observed := api.NewServer(idx, api.Config{CacheEntries: -1}).Handler()
	days := idx.Days()
	routes := map[string]string{
		"api.handler_domain_us": "/v1/domain/" + url.PathEscape(domains[len(domains)/2]),
		"api.handler_series_us": "/v1/provider/" + url.PathEscape(w.refs.Providers[0].Name) + "/series",
		"api.handler_day_us":    "/v1/day/" + days[len(days)/2].String(),
		"api.handler_stats_us":  "/v1/stats",
	}
	const calls = 2000
	for name, path := range routes {
		m[name] = serve(observed, path, calls).Seconds() * 1e6 / calls
	}
	// The same cached response over a loopback socket: what net/http and
	// the kernel add to a query that the in-process reader leaves out.
	hs := httptest.NewServer(api.NewServer(idx, api.Config{}).Handler())
	cl := &client{hc: hs.Client(), base: hs.URL}
	lat := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		cl.get(routes["api.handler_domain_us"], io.Discard)
		lat = append(lat, time.Since(t0).Seconds())
	}
	hs.Close()
	m["api.loopback_query_us"] = median(lat) * 1e6

	// Alternate batches so drift hits both sides alike.
	var on, off time.Duration
	path := routes["api.handler_domain_us"]
	for round := 0; round < 10; round++ {
		off += serve(bare, path, calls)
		on += serve(observed, path, calls)
	}
	m["obs.handler_overhead_frac"] = ratio(on.Seconds(), off.Seconds()) - 1
}
