package main

import (
	"context"
	"net/netip"
	"strings"
	"time"

	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/pfx2as"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

// replayResult holds the stand-alone replays of the calls
// Pipeline.RunDay makes internally. RunDay itself is one span (the
// benchmark does not put spans inside the program), so these replays are
// what splits its time between worldsim, pfx2as and store.
type replayResult struct {
	stateForUS     float64 // World.StateFor, per live domain
	ribMS          float64 // RIBForDay().Snapshot(), per day
	pfxBuildMS     float64 // pfx2as.Parse + NewWalk, per day
	pfxLookupNS    float64
	buildWireMS    float64 // World.BuildWire, per day (wire mode only)
	appendRowsPerS float64 // store.Writer Add* rate
	commitMS       float64 // Writer.Commit, per partition
	// perDayCPU is the CPU one day's worth of the replayed calls took.
	perDayCPU time.Duration
}

// replayMeasure replays, over the same world and days as the pass, the
// work RunDay delegates to other layers. Spans go under their own root
// ("bench.replay") so they never count toward the pass's ledger.
func replayMeasure(size reproSize, rec *Recorder) (replayResult, error) {
	var res replayResult
	w, err := worldsim.New(worldsim.DefaultConfig(size.Scale))
	if err != nil {
		return res, err
	}
	root := rec.start(nil, "bench.replay")
	defer root.end()
	win := simtime.Range{Start: w.Cfg.Window.Start, End: w.Cfg.Window.Start + simtime.Day(size.Days)}

	var domains int
	var addrs []netip.Addr
	var table pfx2as.Table
	cpu0 := cpuTime()
	var stateFor, rib, pfx time.Duration
	for day := win.Start; day < win.End; day++ {
		t := time.Now()
		sp := rec.start(root, "worldsim.statefor")
		for _, d := range w.Domains {
			window := w.Cfg.Window
			if d.TLD == "nl" {
				window = w.Cfg.NLWindow
			}
			if !window.Contains(day) || !d.Life.Contains(day) {
				continue // the same list RunDay's Stage I assembles
			}
			st := w.StateFor(d, day)
			domains++
			if day == win.Start && len(addrs) < 4096 {
				addrs = append(addrs, st.ApexA...)
			}
		}
		sp.end()
		stateFor += time.Since(t)

		t = time.Now()
		var snap string
		rec.do(root, "worldsim.rib_snapshot", func() { snap = w.RIBForDay(day).Snapshot() })
		rib += time.Since(t)

		t = time.Now()
		rec.do(root, "pfx2as.parse_build", func() {
			var entries []pfx2as.Entry
			if entries, err = pfx2as.Parse(strings.NewReader(snap)); err == nil {
				table = pfx2as.NewWalk(entries)
			}
		})
		pfx += time.Since(t)
		if err != nil {
			return res, err
		}
	}
	cpuDays := cpuTime() - cpu0
	days := float64(size.Days)
	res.stateForUS = ratio(stateFor.Seconds()*1e6, float64(domains))
	res.ribMS = rib.Seconds() * 1e3 / days
	res.pfxBuildMS = pfx.Seconds() * 1e3 / days

	if len(addrs) > 0 {
		const rounds = 50
		t := time.Now()
		for i := 0; i < rounds; i++ {
			for _, a := range addrs {
				table.Lookup(a)
			}
		}
		res.pfxLookupNS = float64(time.Since(t).Nanoseconds()) / float64(rounds*len(addrs))
	}

	// Re-append sampled days' rows through store.Writer + Commit.
	sample := []simtime.Day{win.Start, win.Start + simtime.Day(size.Days/2), win.End - 1}
	var appendD, commitD, appendCPU time.Duration
	var rows, partitions int
	for _, day := range sample {
		src := store.New()
		pipe := measure.New(w, src, measure.Config{Mode: measure.ModeDirect, Workers: measureWorkers})
		if err := pipe.RunDay(context.Background(), day); err != nil {
			return res, err
		}
		dict := src.Dict()
		dst := store.New()
		for _, source := range src.Sources() {
			batch, ok := src.RowBatch(source, day)
			if !ok {
				continue
			}
			materialized := make([]store.Row, batch.Rows())
			for i := range materialized {
				materialized[i] = batch.Row(i, dict)
			}
			wr := dst.NewWriter(source, day)
			c := cpuTime()
			t := time.Now()
			rec.do(root, "store.append", func() {
				for _, r := range materialized {
					if r.Addr.IsValid() {
						wr.AddAddr(r.Domain, r.Kind, r.Addr, r.ASNs)
					} else {
						wr.AddStr(r.Domain, r.Kind, r.Str)
					}
				}
			})
			appendD += time.Since(t)
			t = time.Now()
			rec.do(root, "store.commit", wr.Commit)
			commitD += time.Since(t)
			appendCPU += cpuTime() - c
			rows += len(materialized)
			partitions++
		}
	}
	res.appendRowsPerS = ratio(float64(rows), appendD.Seconds())
	res.commitMS = ratio(commitD.Seconds()*1e3, float64(partitions))
	res.perDayCPU = time.Duration(float64(cpuDays)/days) + appendCPU/time.Duration(len(sample))

	if size.Wire {
		var build time.Duration
		for day := win.Start; day < win.End; day++ {
			t := time.Now()
			sp := rec.start(root, "worldsim.buildwire")
			wire, err := w.BuildWire(day, transport.NewMem(int64(day)^0x3f3f))
			sp.end()
			build += time.Since(t)
			if err != nil {
				return res, err
			}
			wire.Close()
		}
		res.buildWireMS = build.Seconds() * 1e3 / days
	}
	return res, nil
}

// dnswireMicro times packing and unpacking a typical response (one
// question, a CNAME and two A answers) — the codec cost every wire-mode
// record pays twice.
func dnswireMicro() (packNS, unpackNS float64) {
	q := dnswire.NewQuery(7, "www.example-customer.com", dnswire.TypeA)
	m := q.Reply()
	m.Answers = []dnswire.RR{
		{Name: "www.example-customer.com", Type: dnswire.TypeCNAME, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.CNAME{Target: "example-customer.com.cdn.cloudflare.net"}},
		{Name: "example-customer.com.cdn.cloudflare.net", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.MustParseAddr("104.16.1.1")}},
		{Name: "example-customer.com.cdn.cloudflare.net", Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 300,
			Data: dnswire.A{Addr: netip.MustParseAddr("104.16.2.1")}},
	}
	const n = 20000
	var wireBytes []byte
	t := time.Now()
	for i := 0; i < n; i++ {
		b, err := m.Pack()
		if err != nil {
			return 0, 0
		}
		wireBytes = b
	}
	packNS = float64(time.Since(t).Nanoseconds()) / n
	t = time.Now()
	for i := 0; i < n; i++ {
		if _, err := dnswire.Unpack(wireBytes); err != nil {
			return packNS, 0
		}
	}
	unpackNS = float64(time.Since(t).Nanoseconds()) / n
	return packNS, unpackNS
}
