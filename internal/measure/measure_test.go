package measure

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/dnsserver"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

// tinyWorld builds a very small world for wire-mode tests.
func tinyWorld(t testing.TB) *worldsim.World {
	t.Helper()
	cfg := worldsim.DefaultConfig(400_000) // ≈350 gTLD domains
	w, err := worldsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// midWorld is used for direct-mode pipeline tests.
func midWorld(t testing.TB) *worldsim.World {
	t.Helper()
	cfg := worldsim.DefaultConfig(50_000)
	w, err := worldsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDirectRunDay(t *testing.T) {
	w := midWorld(t)
	s := store.New()
	p := New(w, s, Config{Mode: ModeDirect, Workers: 4})
	if err := p.RunDay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	srcs := s.Sources()
	if len(srcs) < 3 {
		t.Fatalf("sources = %v", srcs)
	}
	for _, tld := range worldsim.GTLDs() {
		n := 0
		s.ForEachRow(tld, 0, func(store.Row) { n++ })
		active := w.TLDs[tld].ActiveCount(0)
		// Every active domain yields ≥4 rows (apex A, www A or CNAME+A,
		// 2 NS).
		if n < active*3 {
			t.Errorf("%s: %d rows for %d domains", tld, n, active)
		}
	}
	// Day 0 is before the .nl/Alexa window.
	if len(s.Days(SourceAlexa)) != 0 || len(s.Days("nl")) != 0 {
		t.Error("alexa/nl measured before their window")
	}
}

func TestDirectAlexaAndNLWindows(t *testing.T) {
	w := midWorld(t)
	s := store.New()
	p := New(w, s, Config{Mode: ModeDirect, Workers: 2})
	day := w.Cfg.NLWindow.Start
	if err := p.RunDay(context.Background(), day); err != nil {
		t.Fatal(err)
	}
	if len(s.Days(SourceAlexa)) != 1 {
		t.Error("alexa not measured in window")
	}
	if len(s.Days("nl")) != 1 {
		t.Error("nl not measured in window")
	}
}

func TestASNSupplementation(t *testing.T) {
	w := midWorld(t)
	s := store.New()
	p := New(w, s, Config{Mode: ModeDirect, Workers: 2})
	if err := p.RunDay(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	addrRows, withASN := 0, 0
	for _, tld := range worldsim.GTLDs() {
		s.ForEachRow(tld, 100, func(r store.Row) {
			if r.Kind == store.KindApexA {
				addrRows++
				if len(r.ASNs) > 0 {
					withASN++
				}
			}
		})
	}
	if addrRows == 0 {
		t.Fatal("no address rows")
	}
	if withASN != addrRows {
		t.Errorf("ASN coverage %d/%d; every simulated address should be routed", withASN, addrRows)
	}
}

// rowKey canonicalises a row for set comparison.
func rowKey(r store.Row) string {
	asns := append([]uint32(nil), r.ASNs...)
	sort.Slice(asns, func(i, j int) bool { return asns[i] < asns[j] })
	return fmt.Sprintf("%s|%v|%v|%s|%v", r.Domain, r.Kind, r.Addr, r.Str, asns)
}

func collectRows(s *store.Store, source string, day simtime.Day) []string {
	var keys []string
	s.ForEachRow(source, day, func(r store.Row) { keys = append(keys, rowKey(r)) })
	sort.Strings(keys)
	return keys
}

// TestModesEquivalent is the core fidelity check: wire-mode measurement
// through real DNS messages produces exactly the rows the direct mode
// derives from the world model.
func TestModesEquivalent(t *testing.T) {
	w := tinyWorld(t)
	day := simtime.Day(100)

	direct := store.New()
	pd := New(w, direct, Config{Mode: ModeDirect, Workers: 2})
	if err := pd.RunDay(context.Background(), day); err != nil {
		t.Fatal(err)
	}
	wireStore := store.New()
	pw := New(w, wireStore, Config{Mode: ModeWire, Workers: 4, Timeout: 250, Retries: 3})
	if err := pw.RunDay(context.Background(), day); err != nil {
		t.Fatal(err)
	}
	if pw.QueriesSent() == 0 {
		t.Error("wire mode sent no queries")
	}
	for _, src := range direct.Sources() {
		want := collectRows(direct, src, day)
		got := collectRows(wireStore, src, day)
		if len(want) != len(got) {
			t.Errorf("%s: direct %d rows, wire %d rows", src, len(want), len(got))
			diffSample(t, want, got)
			continue
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("%s row %d:\ndirect %s\nwire   %s", src, i, want[i], got[i])
				break
			}
		}
	}
}

func diffSample(t *testing.T, want, got []string) {
	t.Helper()
	wset := map[string]bool{}
	for _, k := range want {
		wset[k] = true
	}
	gset := map[string]bool{}
	for _, k := range got {
		gset[k] = true
	}
	shown := 0
	for _, k := range want {
		if !gset[k] && shown < 5 {
			t.Logf("missing in wire: %s", k)
			shown++
		}
	}
	shown = 0
	for _, k := range got {
		if !wset[k] && shown < 5 {
			t.Logf("extra in wire: %s", k)
			shown++
		}
	}
}

func TestSedoOutageDropsRows(t *testing.T) {
	w := midWorld(t)
	s := store.New()
	p := New(w, s, Config{Mode: ModeDirect, Workers: 2})
	outage := simtime.FromDate(2015, 11, 22)
	if err := p.RunDay(context.Background(), outage); err != nil {
		t.Fatal(err)
	}
	if err := p.RunDay(context.Background(), outage+1); err != nil {
		t.Fatal(err)
	}
	sedoRows := func(day simtime.Day) int {
		n := 0
		for _, tld := range worldsim.GTLDs() {
			s.ForEachRow(tld, day, func(r store.Row) {
				if strings.HasSuffix(r.Str, ".sedoparking.com") {
					n++
				}
			})
		}
		return n
	}
	if n := sedoRows(outage); n != 0 {
		t.Errorf("outage day has %d sedo rows", n)
	}
	if n := sedoRows(outage + 1); n == 0 {
		t.Error("no sedo rows the day after the outage")
	}
}

func TestRunRange(t *testing.T) {
	w := midWorld(t)
	s := store.New()
	var days []simtime.Day
	p := New(w, s, Config{Mode: ModeDirect, Workers: 2, OnDay: func(d simtime.Day, rows int) {
		if rows <= 0 {
			t.Errorf("day %s: %d rows", d, rows)
		}
		days = append(days, d)
	}})
	for day := simtime.Day(0); day < 3; day++ {
		if err := p.RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
	}
	if len(days) != 3 {
		t.Errorf("OnDay calls = %d", len(days))
	}
	if got := s.Days("com"); len(got) != 3 {
		t.Errorf("com days = %v", got)
	}
}

// TestModesEquivalentOnOutageDay checks the two fidelity modes agree even
// when an operator's name servers are down: direct mode marks the domains
// unmeasurable, wire mode times out on them — either way, no rows.
func TestModesEquivalentOnOutageDay(t *testing.T) {
	w := tinyWorld(t)
	outage := simtime.FromDate(2015, 11, 22)

	direct := store.New()
	if err := New(w, direct, Config{Mode: ModeDirect, Workers: 2}).RunDay(context.Background(), outage); err != nil {
		t.Fatal(err)
	}
	wireStore := store.New()
	if err := New(w, wireStore, Config{Mode: ModeWire, Workers: 8, Timeout: 60, Retries: 1}).RunDay(context.Background(), outage); err != nil {
		t.Fatal(err)
	}
	for _, src := range direct.Sources() {
		want := collectRows(direct, src, outage)
		got := collectRows(wireStore, src, outage)
		if len(want) != len(got) {
			t.Errorf("%s: direct %d rows, wire %d rows", src, len(want), len(got))
			diffSample(t, want, got)
		}
	}
	// And the Sedo domains really are absent.
	for _, src := range direct.Sources() {
		direct.ForEachRow(src, outage, func(r store.Row) {
			if strings.HasSuffix(r.Str, ".sedoparking.com") {
				t.Errorf("sedo row present on outage day: %+v", r)
			}
		})
	}
}

// TestWireOverMappedUDP runs a wire-mode day over real kernel UDP sockets
// via the NAT-style mapped transport.
func TestWireOverMappedUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel sockets")
	}
	w := tinyWorld(t)
	day := simtime.Day(10)

	direct := store.New()
	if err := New(w, direct, Config{Mode: ModeDirect, Workers: 2}).RunDay(context.Background(), day); err != nil {
		t.Fatal(err)
	}
	udp := store.New()
	cfg := Config{Mode: ModeWire, Workers: 8, Timeout: 400, Retries: 3,
		WireNetwork: func(simtime.Day) transport.Network { return transport.NewMappedUDP() }}
	if err := New(w, udp, cfg).RunDay(context.Background(), day); err != nil {
		t.Skipf("cannot run over UDP: %v", err)
	}
	for _, src := range direct.Sources() {
		want := collectRows(direct, src, day)
		got := collectRows(udp, src, day)
		if len(want) != len(got) {
			t.Errorf("%s: direct %d rows, udp-wire %d rows", src, len(want), len(got))
		}
	}
}

func TestAAAAMeasured(t *testing.T) {
	w := midWorld(t)
	s := store.New()
	if err := New(w, s, Config{Mode: ModeDirect, Workers: 2}).RunDay(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	v6 := 0
	for _, tld := range worldsim.GTLDs() {
		s.ForEachRow(tld, 0, func(r store.Row) {
			if r.Kind == store.KindApexAAAA || r.Kind == store.KindWWWAAAA {
				v6++
				if !r.Addr.Is6() || r.Addr.Is4In6() {
					t.Fatalf("AAAA row with non-v6 address: %v", r.Addr)
				}
				if len(r.ASNs) == 0 {
					t.Fatalf("AAAA row without origin AS: %+v", r)
				}
			}
		})
	}
	if v6 == 0 {
		t.Error("no AAAA rows measured")
	}
}

// TestWireSurvivesPacketLoss injects 10% datagram loss: the resolvers'
// retries must still produce a (nearly) complete measurement.
func TestWireSurvivesPacketLoss(t *testing.T) {
	w := tinyWorld(t)
	day := simtime.Day(50)

	direct := store.New()
	if err := New(w, direct, Config{Mode: ModeDirect, Workers: 2}).RunDay(context.Background(), day); err != nil {
		t.Fatal(err)
	}
	lossy := store.New()
	cfg := Config{Mode: ModeWire, Workers: 8, Timeout: 20, Retries: 8,
		WireNetwork: func(simtime.Day) transport.Network {
			return chaos.Wrap(transport.NewMem(99), chaos.Config{Name: "lossy", Loss: 0.10}, 99)
		}}
	if err := New(w, lossy, cfg).RunDay(context.Background(), day); err != nil {
		t.Fatal(err)
	}
	for _, src := range direct.Sources() {
		want := len(collectRows(direct, src, day))
		got := len(collectRows(lossy, src, day))
		if got < want*95/100 {
			t.Errorf("%s: only %d/%d rows under 10%% loss", src, got, want)
		}
	}
}

// TestRunPartitionEquivalent: measuring a day partition by partition
// through the coordination plane's unit of work yields exactly the rows
// RunDay produces, and DaySources enumerates exactly the sources RunDay
// would populate.
func TestRunPartitionEquivalent(t *testing.T) {
	w := midWorld(t)
	day := w.Cfg.NLWindow.Start // nl + alexa + gTLDs all active

	whole := store.New()
	pd := New(w, whole, Config{Mode: ModeDirect, Workers: 4})
	if err := pd.RunDay(context.Background(), day); err != nil {
		t.Fatal(err)
	}

	parts := store.New()
	pp := New(w, parts, Config{Mode: ModeDirect, Workers: 4})
	sources := pp.DaySources(day)
	if len(sources) != len(whole.Sources()) {
		t.Fatalf("DaySources = %v, RunDay populated %v", sources, whole.Sources())
	}
	for _, src := range sources {
		if err := pp.RunPartition(context.Background(), src, day); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := parts.Sources(), whole.Sources(); !reflect.DeepEqual(got, want) {
		t.Fatalf("sources = %v, want %v", got, want)
	}
	for _, src := range sources {
		want := collectRows(whole, src, day)
		got := collectRows(parts, src, day)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s/%s: partition rows differ from RunDay (%d vs %d rows)", src, day, len(got), len(want))
		}
	}
	// Unknown partitions are rejected.
	if err := pp.RunPartition(context.Background(), "no-such-source", day); err == nil {
		t.Fatal("unknown source accepted")
	}
	// Cancellation is honoured before any work happens.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := pp.RunPartition(ctx, "com", day); err == nil {
		t.Fatal("cancelled partition ran")
	}
}

// TestPartitionRowOrderDeterministic: workers commit their chunks in
// worker order, so a partition's row sequence is the task order — the
// same run to run and whatever the worker count.
func TestPartitionRowOrderDeterministic(t *testing.T) {
	w := midWorld(t)
	day := w.Cfg.NLWindow.Start // nl + alexa + gTLDs all active
	type partition struct {
		rows          []string // presentation form, in stored order
		n, distinctID int
	}
	measure := func(workers int) map[string]partition {
		s := store.New()
		p := New(w, s, Config{Mode: ModeDirect, Workers: workers})
		if err := p.RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
		out := make(map[string]partition)
		for _, src := range s.Sources() {
			var part partition
			s.ForEachRow(src, day, func(r store.Row) { part.rows = append(part.rows, rowKey(r)) })
			var ids []uint32
			part.n, _, ids = s.DayStats(src, day)
			part.distinctID = len(ids)
			out[src] = part
		}
		return out
	}
	want := measure(1)
	if len(want) < 5 {
		t.Fatalf("only %d partitions measured", len(want))
	}
	for _, workers := range []int{4, 4} {
		got := measure(workers)
		for src, wp := range want {
			gp := got[src]
			if gp.n != wp.n || gp.distinctID != wp.distinctID {
				t.Errorf("%s, %d workers: %d rows / %d domains, want %d / %d", src, workers, gp.n, gp.distinctID, wp.n, wp.distinctID)
			}
			if !reflect.DeepEqual(gp.rows, wp.rows) {
				t.Errorf("%s, %d workers: row sequence differs from the one-worker order", src, workers)
			}
		}
	}
}

// TestDeterministicAcrossWorkers: dictionary IDs are handed out in row
// order at the ordered commit, so a fixed-seed multi-day run saves the same
// bytes and sizes the same Table 1 rows at any worker count, run to run.
func TestDeterministicAcrossWorkers(t *testing.T) {
	w := midWorld(t)
	start := w.Cfg.NLWindow.Start // nl + alexa + gTLDs all active
	type outcome struct {
		sum   [sha256.Size]byte
		table []store.Stats
	}
	run := func(workers int) outcome {
		s := store.New()
		p := New(w, s, Config{Mode: ModeDirect, Workers: workers})
		for day := start; day < start+2; day++ {
			if err := p.RunDay(context.Background(), day); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(t.TempDir(), "run.dpsa")
		if err := s.Save(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out := outcome{sum: sha256.Sum256(data)}
		for _, src := range s.Sources() {
			out.table = append(out.table, s.SourceStats(src))
		}
		return out
	}
	want := run(1)
	if len(want.table) < 5 {
		t.Fatalf("only %d sources measured", len(want.table))
	}
	for _, workers := range []int{1, 2, 2, 4, 4} {
		got := run(workers)
		if got.sum != want.sum {
			t.Errorf("%d workers: saved dataset differs from the one-worker run", workers)
		}
		if !reflect.DeepEqual(got.table, want.table) {
			t.Errorf("%d workers: Table 1 rows %+v, want %+v", workers, got.table, want.table)
		}
	}
}

// TestDictReadersBesideCommits: readers of the dictionary run beside two
// pipelines whose ordered commits intern new strings into one store, and
// every partition still holds the rows a lone pipeline measures.
func TestDictReadersBesideCommits(t *testing.T) {
	w := tinyWorld(t)
	shared := store.New()
	days := []simtime.Day{0, 1}
	var measuring sync.WaitGroup
	for _, day := range days {
		measuring.Add(1)
		go func() {
			defer measuring.Done()
			if err := New(w, shared, Config{Mode: ModeDirect, Workers: 2}).RunDay(context.Background(), day); err != nil {
				t.Error(err)
			}
		}()
	}
	stop := make(chan struct{})
	var reading sync.WaitGroup
	reading.Add(1)
	go func() {
		defer reading.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			d, _ := shared.SharedDict()
			if n := d.Len(); n > 0 {
				_ = d.Str(uint32(n - 1))
			}
		}
	}()
	measuring.Wait()
	close(stop)
	reading.Wait()
	for _, day := range days {
		alone := store.New()
		if err := New(w, alone, Config{Mode: ModeDirect, Workers: 2}).RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
		for _, src := range alone.Sources() {
			if !reflect.DeepEqual(collectRows(shared, src, day), collectRows(alone, src, day)) {
				t.Errorf("%s/%s: rows differ when committed beside another pipeline", src, day)
			}
		}
	}
}

// TestWireDayLosesNothing runs fault-free wire days at the benchmark's
// size (1:48000). Nothing may be lost — one lost datagram costs a whole
// resolver timeout — the servers must leave no goroutine behind once the
// day's wire is closed, and two runs must do the same work.
func TestWireDayLosesNothing(t *testing.T) {
	w, err := worldsim.New(worldsim.DefaultConfig(48_000))
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Day(10)
	before := runtime.NumGoroutine()
	run := func() NetStats {
		p := New(w, store.New(), Config{Mode: ModeWire, Workers: 2})
		if err := p.RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
		return p.LastNetStats()
	}
	a, b := run(), run()
	if a.Lost != 0 || a.GaveUp != 0 || a.Resolutions == 0 {
		t.Errorf("fault-free day: %+v; want queries, nothing lost, nothing given up", a)
	}
	if a.Queries != b.Queries || a.Resolutions != b.Resolutions {
		t.Errorf("two runs of one day differ: %+v vs %+v", a, b)
	}
	// Goroutines that other tests left behind may still be exiting; none
	// of this test's may remain.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before the wire days, %d after", before, after)
	}
}

// slowFirstQuery orders a slow answer for the day's first query only.
type slowFirstQuery struct {
	delay time.Duration
	seen  atomic.Int64
}

func (f *slowFirstQuery) QueryFault(string) (dnsserver.Fault, time.Duration) {
	if f.seen.Add(1) == 1 {
		return dnsserver.FaultSlow, f.delay
	}
	return dnsserver.FaultNone, 0
}

// A slow answer that arrives after the resolver's timeout is a lost
// attempt, counted in NetStats.Lost, though the server answered inline;
// the retry recovers the data point.
func TestWireSlowAnswerCountsAsLost(t *testing.T) {
	w := tinyWorld(t)
	cfg := Config{Mode: ModeWire, Workers: 4, Timeout: 100, Retries: 3,
		OnWire: func(_ simtime.Day, wire *worldsim.Wire, _ transport.Network) {
			wire.SetFaults(&slowFirstQuery{delay: 400 * time.Millisecond})
		}}
	p := New(w, store.New(), cfg)
	if err := p.RunDay(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if st := p.LastNetStats(); st.Lost < 1 || st.GaveUp != 0 {
		t.Errorf("net stats %+v: want the slow answer lost and no data point given up", st)
	}
}
