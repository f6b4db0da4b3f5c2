package experiment

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dpsadopt/internal/chaos"
	"dpsadopt/internal/dnswire"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/transport"
	"dpsadopt/internal/worldsim"
)

// TestDegradedAccountingDeterministic is the reproducibility guarantee:
// two runs with the same fault scenario and seed must produce
// byte-identical per-day accounting — every query, loss and give-up in
// the same place — regardless of worker scheduling.
func TestDegradedAccountingDeterministic(t *testing.T) {
	run := func() []byte {
		var acct []DayAccounting
		r, err := New(Config{
			Scale: 400000, Workers: 4, Days: 4,
			Wire: true, FaultScenario: "flaky-1pct", FaultSeed: 7,
			WireTimeout:   100,
			OnDayProgress: func(dp DayProgress) { acct = append(acct, AccountDay(dp.Day, dp.Net)) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(acct) != 4 {
			t.Fatalf("accounting rows = %d, want 4", len(acct))
		}
		var queries, lost int64
		for _, a := range acct {
			queries += a.Queries
			lost += a.Lost
		}
		if queries == 0 {
			t.Fatal("no queries accounted: wire mode did not run")
		}
		if lost == 0 {
			t.Fatal("no losses accounted: the 1% scenario injected nothing")
		}
		b, err := json.Marshal(acct)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Errorf("accounting differs between identically-seeded runs:\n%s\n%s", a, b)
	}
}

// TestServfailBurstDegradesDay: authoritatives answering SERVFAIL is what
// attacked DNS looks like, and a name no server of its set can answer is
// a lost data point. One servfail-burst day must give resolutions up and
// commit degraded; it loses no datagram, so it sleeps on no timeout.
func TestServfailBurstDegradesDay(t *testing.T) {
	var days []DayProgress
	r, err := New(Config{
		Scale: 400000, Workers: 1, Days: 1,
		Wire: true, FaultScenario: "servfail-burst", FaultSeed: 7,
		OnDayProgress: func(dp DayProgress) { days = append(days, dp) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 {
		t.Fatalf("%d days committed, want 1", len(days))
	}
	a := AccountDay(days[0].Day, days[0].Net)
	if a.GaveUp == 0 || !a.Degraded || !days[0].Degraded {
		t.Errorf("servfail-burst day: %d of %d resolutions gave up (rate %.4f), accounted degraded %v, committed degraded %v; want > 0 and degraded",
			a.GaveUp, a.Resolutions, a.FailureRate, a.Degraded, days[0].Degraded)
	}
	if a.Lost != 0 {
		t.Errorf("servfail-burst day lost %d queries, want 0: SERVFAIL is an answer", a.Lost)
	}
}

// TestServfailBurstDatasetDeterministic: a faulted wire run at several
// workers is a function of its seed. Two identically seeded servfail-burst
// runs must save byte-identical datasets, however the workers' queries
// interleave at the shared authoritative servers.
func TestServfailBurstDatasetDeterministic(t *testing.T) {
	run := func(name string) [sha256.Size]byte {
		r, err := New(Config{
			Scale: 200000, Workers: 4, Days: 2, KeepStore: true,
			Wire: true, FaultScenario: "servfail-burst", FaultSeed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := r.Store.Save(path); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return sha256.Sum256(b)
	}
	if a, b := run("a.dpsa"), run("b.dpsa"); a != b {
		t.Errorf("identically seeded servfail-burst runs saved different datasets: %x, %x", a, b)
	}
}

// TestServfailBurstLossIsCounted: every data point a fault loses is
// counted. Two servfail-burst days at four workers are set against the
// same days fault-free. The fault-free run gives up no resolution and
// measures every domain the world has on each day; under the fault, the
// domain-days that lost every row are no more than the day's give-ups,
// and a day that lost any commits as degraded.
func TestServfailBurstLossIsCounted(t *testing.T) {
	type pass struct {
		days     []DayProgress
		measured map[simtime.Day]map[string]bool // source/domain with a row
		r        *Runner
	}
	run := func(scenario string) pass {
		var p pass
		r, err := New(Config{
			Scale: 200000, Workers: 4, Days: 2, KeepStore: true,
			Wire: true, FaultScenario: scenario, FaultSeed: 7,
			OnDayProgress: func(dp DayProgress) { p.days = append(p.days, dp) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		p.r, p.measured = r, make(map[simtime.Day]map[string]bool)
		dict := r.Store.Dict()
		for _, src := range r.Store.Sources() {
			for _, day := range r.Store.Days(src) {
				if p.measured[day] == nil {
					p.measured[day] = make(map[string]bool)
				}
				b, _ := r.Store.RowBatch(src, day)
				for _, id := range b.Domains {
					p.measured[day][src+"/"+dict.Str(id)] = true
				}
			}
		}
		return p
	}
	clean, faulted := run(""), run("servfail-burst")

	w := clean.r.World
	for _, dp := range clean.days {
		if dp.Net.GaveUp != 0 {
			t.Errorf("fault-free %s: %d resolutions gave up, want 0", dp.Day, dp.Net.GaveUp)
		}
		live := func(source string, d *worldsim.Domain) {
			if st := w.StateFor(d, dp.Day); st.Exists && !st.Unmeasurable && !clean.measured[dp.Day][source+"/"+d.Name] {
				t.Errorf("fault-free %s: %s/%s has no row", dp.Day, source, d.Name)
			}
		}
		for _, d := range w.Domains {
			window := w.Cfg.Window
			if d.TLD == "nl" {
				window = w.Cfg.NLWindow
			}
			if window.Contains(dp.Day) {
				live(d.TLD, d)
			}
		}
		if w.Cfg.NLWindow.Contains(dp.Day) {
			for _, idx := range w.AlexaList(dp.Day) {
				live(measure.SourceAlexa, w.Domains[idx])
			}
		}
	}

	if len(faulted.days) != len(clean.days) {
		t.Fatalf("faulted run committed %d days, fault-free %d", len(faulted.days), len(clean.days))
	}
	lostAll := 0
	for _, dp := range faulted.days {
		lost := 0
		for key := range clean.measured[dp.Day] {
			if !faulted.measured[dp.Day][key] {
				lost++
			}
		}
		lostAll += lost
		if int64(lost) > dp.Net.GaveUp {
			t.Errorf("servfail-burst %s: %d domain-days lost every row, only %d resolutions gave up", dp.Day, lost, dp.Net.GaveUp)
		}
		if lost > 0 && !dp.Degraded {
			t.Errorf("servfail-burst %s lost %d domain-days and committed as not degraded (%d of %d resolutions gave up)",
				dp.Day, lost, dp.Net.GaveUp, dp.Net.Resolutions)
		}
	}
	if lostAll == 0 {
		t.Fatal("fixture: servfail-burst lost no domain-day, so nothing was checked")
	}
}

// TestChaosDegradedDayRecovery closes the loop of the robustness story:
// a dead-day scenario strikes a mid-run window, those days commit as
// degraded (visibly damaged raw counts), and the Fig 5 growth pipeline
// interpolates across the degraded mask so the trend survives the outage.
func TestChaosDegradedDayRecovery(t *testing.T) {
	var start simtime.Day
	badIdx := func(d simtime.Day) int { return int(d - start) }
	const badLo, badHi = 6, 11 // [badLo, badHi) are struck days
	var accounting []DayAccounting
	r, err := New(Config{
		Scale: 1000000, Workers: 8, Days: 16, Wire: true,
		OnDayProgress: func(dp DayProgress) { accounting = append(accounting, AccountDay(dp.Day, dp.Net)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	start = r.Window().Start
	// The outage strikes only the window's days, and the resolvers give
	// up fast: a 10 ms timeout, one retry, four retries a resolution.
	fc, err := chaos.Scenario("dead-day")
	if err != nil {
		t.Fatal(err)
	}
	mcfg := measure.Config{Mode: measure.ModeWire, Workers: 8, Timeout: 10, Retries: 1, RetryBudget: 4}
	armFaults(&mcfg, fc, DaySeeds(7), func(d simtime.Day) bool { i := badIdx(d); return i >= badLo && i < badHi })
	r.pipeline.Cfg = mcfg
	if err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Exactly the struck days are committed degraded.
	for _, a := range accounting {
		bad := badIdx(a.Day) >= badLo && badIdx(a.Day) < badHi
		if a.Degraded != bad {
			t.Errorf("day %s (idx %d): degraded = %v, failure rate %.3f", a.Day, badIdx(a.Day), a.Degraded, a.FailureRate)
		}
		if bad && a.FailureRate <= DefaultFailureThreshold {
			t.Errorf("struck day %s: failure rate %.3f not above threshold", a.Day, a.FailureRate)
		}
		// A quiet day injects nothing, so it loses no data point: every
		// resolution completes (GaveUp == 0). Lost is not held to zero,
		// because it counts attempts whose 10 ms WireTimeout expired, and
		// on a shared 2-vCPU guest a scheduler hiccup expires one now and
		// then with no fault injected (1 run in 6 before this allowance).
		// Such a timeout is retried, and GaveUp == 0 says every retry
		// recovered; more than a handful would be real loss.
		const quietLostMax = 3
		if !bad && (a.GaveUp != 0 || a.Lost > quietLostMax) {
			t.Errorf("quiet day %s: %d resolutions gave up, %d queries lost (want 0 and <= %d)",
				a.Day, a.GaveUp, a.Lost, quietLostMax)
		}
	}
	degraded := 0
	for _, a := range accounting {
		if a.Degraded {
			degraded++
		}
	}
	if degraded != badHi-badLo {
		t.Fatalf("degraded days = %d, want %d", degraded, badHi-badLo)
	}

	// The raw namespace counts are visibly damaged on struck days...
	gtlds := []string{"com", "net", "org"}
	goodMeasured := r.Agg.SumMeasured(gtlds, start)
	badMeasured := r.Agg.SumMeasured(gtlds, start+badLo+2)
	if goodMeasured == 0 {
		t.Fatal("no domains measured on a quiet day")
	}
	if badMeasured >= goodMeasured*9/10 {
		t.Fatalf("struck day measured %d of %d domains: dead-day scenario did no damage", badMeasured, goodMeasured)
	}

	// ...but the smoothed, mask-interpolated expansion trend stays flat:
	// the outage does not read as namespace collapse.
	g := r.Figure5()
	if len(g.Expansion) == 0 {
		t.Fatal("no expansion series")
	}
	for i, v := range g.Expansion {
		if v < 0.9 || v > 1.1 {
			t.Errorf("expansion[%d] = %.3f: degraded window leaked into the smoothed trend", i, v)
		}
	}
}

// TestAccountDay pins the one degraded-day rule: a day is degraded when
// more than DefaultFailureThreshold of its resolutions gave up, whatever
// caused it — no fault scenario needs to be armed.
func TestAccountDay(t *testing.T) {
	day := simtime.Day(100)
	for _, tc := range []struct {
		net      measure.NetStats
		degraded bool
	}{
		{measure.NetStats{}, false}, // a direct day resolves nothing
		{measure.NetStats{Queries: 200, Lost: 40, Resolutions: 100, GaveUp: 5}, false},
		{measure.NetStats{Queries: 200, Lost: 40, Resolutions: 100, GaveUp: 6}, true},
	} {
		a := AccountDay(day, tc.net)
		if a.Degraded != tc.degraded || a.Day != day || a.FailureRate != tc.net.FailureRate() ||
			a.Queries != tc.net.Queries || a.Lost != tc.net.Lost ||
			a.Resolutions != tc.net.Resolutions || a.GaveUp != tc.net.GaveUp {
			t.Errorf("AccountDay(%+v) = %+v, want degraded %v", tc.net, a, tc.degraded)
		}
	}
}

// TestArmFaults checks the fault arming every entry point shares, on one
// day's real servers: roots stay reachable on a network where every other
// name server is dead, server faults are installed exactly when the
// scenario has them, the network is wrapped exactly when the scenario
// has datagram faults, days outside the window run fault-free, and the
// fault pattern is a function of (seed, day). A reply that is due always
// arrives; the read timeout only ends a failing check.
func TestArmFaults(t *testing.T) {
	w, err := worldsim.New(worldsim.DefaultConfig(400000))
	if err != nil {
		t.Fatal(err)
	}
	day := w.Cfg.Window.Start
	// arm measures nothing: it arms a fresh config the way a run does and
	// builds day's servers on the armed network.
	arm := func(fc chaos.Config, days func(simtime.Day) bool, day simtime.Day) (transport.Network, *worldsim.Wire) {
		var mcfg measure.Config
		armFaults(&mcfg, fc, DaySeeds(7), days)
		network := mcfg.WireNetwork(day)
		wire, err := w.BuildWire(day, network)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(wire.Close)
		mcfg.OnWire(day, wire, network)
		return network, wire
	}
	// rcodes asks root about n0.com, n1.com, ... and spells its answers:
	// N for NOERROR, S for SERVFAIL, - for no answer.
	rcodes := func(network transport.Network, root netip.AddrPort, names int) string {
		conn, err := network.Dial(netip.MustParseAddr("10.250.0.9"))
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		out := ""
		buf := make([]byte, 4096)
		for i := 0; i < names; i++ {
			q, err := dnswire.NewQuery(uint16(i), fmt.Sprintf("n%d.com", i), dnswire.TypeA).Pack()
			if err != nil {
				t.Fatal(err)
			}
			if err := conn.WriteTo(q, root); err != nil {
				t.Fatal(err)
			}
			n, _, err := conn.ReadFrom(buf, 2*time.Second)
			if err != nil {
				out += "-"
				continue
			}
			m, err := dnswire.Unpack(buf[:n])
			if err != nil {
				t.Fatal(err)
			}
			switch m.Flags.RCode {
			case dnswire.RCodeNoError:
				out += "N"
			case dnswire.RCodeServFail:
				out += "S"
			default:
				t.Fatalf("root answered %v", m.Flags.RCode)
			}
		}
		return out
	}
	never := func(simtime.Day) bool { return false }
	for _, tc := range []struct {
		name    string
		fc      chaos.Config
		days    func(simtime.Day) bool
		wrapped bool
		want    string // each root's answer to one query
	}{
		{"fault-free", chaos.Config{}, nil, false, "N"},
		{"network", chaos.Config{DeadFraction: 1}, nil, true, "N"},
		{"server", chaos.Config{Servfail: 1}, nil, false, "S"},
		{"both", chaos.Config{DeadFraction: 1, Servfail: 1}, nil, true, "S"},
		{"day outside window", chaos.Config{DeadFraction: 1, Servfail: 1}, never, false, "N"},
	} {
		network, wire := arm(tc.fc, tc.days, day)
		if _, ok := network.(*chaos.Network); ok != tc.wrapped {
			t.Errorf("%s: network wrapped = %v, want %v", tc.name, ok, tc.wrapped)
		}
		if len(wire.Roots) == 0 {
			t.Fatal("no roots")
		}
		for _, root := range wire.Roots {
			if got := rcodes(network, root, 1); got != tc.want {
				t.Errorf("%s: root %v answered %q, want %q", tc.name, root, got, tc.want)
			}
		}
	}

	// Half the names fail: the pattern is the seed's, per day.
	half := chaos.Config{Servfail: 0.5}
	pattern := func(day simtime.Day) string {
		network, wire := arm(half, nil, day)
		return rcodes(network, wire.Roots[0], 32)
	}
	a, b, next := pattern(day), pattern(day), pattern(day+1)
	if a != b {
		t.Errorf("same seed and day, different faults:\n%s\n%s", a, b)
	}
	if a == next {
		t.Errorf("days %s and %s share their fault pattern %s", day, day+1, a)
	}
	if !strings.Contains(a, "S") || !strings.Contains(a, "N") {
		t.Errorf("pattern %s: want both outcomes at Servfail 0.5", a)
	}
}
