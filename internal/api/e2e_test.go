package api

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"dpsadopt/internal/core"
	"dpsadopt/internal/measure"
	"dpsadopt/internal/simtime"
	"dpsadopt/internal/store"
	"dpsadopt/internal/worldsim"
)

// TestEndToEnd is the full loop the binaries perform: measure a small
// world (direct mode), save the .dpsa archive, reload it, serve it, and
// cross-check every API answer against core.DetectDay run independently
// on the reloaded store.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e measurement in -short mode")
	}
	w, err := worldsim.New(worldsim.DefaultConfig(50_000))
	if err != nil {
		t.Fatal(err)
	}
	ms := store.New()
	p := measure.New(w, ms, measure.Config{Mode: measure.ModeDirect, Workers: 4})
	const nDays = 3
	for day := simtime.Day(0); day < nDays; day++ {
		if err := p.RunDay(context.Background(), day); err != nil {
			t.Fatal(err)
		}
	}

	path := filepath.Join(t.TempDir(), "e2e.dpsa")
	if err := ms.Save(path); err != nil {
		t.Fatal(err)
	}
	s, err := store.Load(path)
	if err != nil {
		t.Fatal(err)
	}

	refs := core.MustGroundTruth()
	srv := NewServer(NewIndex(s, refs), Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Independent ground truth: detection straight off the reloaded
	// store, merged across sources exactly as §4.1 counts (a domain once
	// per day no matter how many source lists carry it).
	np := refs.NumProviders()
	type dayTruth struct {
		measured int64
		perProv  []map[string]core.Method // [p] domain → methods
	}
	daySet := make(map[simtime.Day]bool)
	for _, src := range s.Sources() {
		for _, d := range s.Days(src) {
			daySet[d] = true
		}
	}
	var days []simtime.Day
	for d := range daySet {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	truth := make(map[simtime.Day]*dayTruth)
	for _, day := range days {
		dt := &dayTruth{perProv: make([]map[string]core.Method, np)}
		for p := range dt.perProv {
			dt.perProv[p] = make(map[string]core.Method)
		}
		for _, src := range s.Sources() {
			det := core.DetectDay(s, src, day, refs)
			dt.measured += int64(det.DomainsMeasured)
			for p := 0; p < np; p++ {
				det.MergeAny(p, dt.perProv[p])
			}
		}
		truth[day] = dt
	}

	fetch := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if v != nil && resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(body, v); err != nil {
				t.Fatalf("%s: bad JSON %q: %v", path, body, err)
			}
		}
		return resp.StatusCode
	}

	// /v1/day: per-provider totals, measured and any-use counts.
	detectedSomething := false
	for _, day := range days {
		dt := truth[day]
		var got DayInfo
		if code := fetch("/v1/day/"+day.String(), &got); code != http.StatusOK {
			t.Fatalf("day %s: status %d", day, code)
		}
		if got.Measured != dt.measured {
			t.Errorf("day %s: measured = %d, want %d", day, got.Measured, dt.measured)
		}
		anySet := make(map[string]bool)
		for p := 0; p < np; p++ {
			name := refs.Providers[p].Name
			if got.Providers[name] != int64(len(dt.perProv[p])) {
				t.Errorf("day %s %s: count = %d, want %d",
					day, name, got.Providers[name], len(dt.perProv[p]))
			}
			for dom := range dt.perProv[p] {
				anySet[dom] = true
				detectedSomething = true
			}
		}
		if got.AnyUse != int64(len(anySet)) {
			t.Errorf("day %s: any-use = %d, want %d", day, got.AnyUse, len(anySet))
		}
	}
	if !detectedSomething {
		t.Fatal("world produced no detections; e2e proves nothing")
	}

	// /v1/provider/{name}/series: raw counts per day.
	for p := 0; p < np; p++ {
		name := refs.Providers[p].Name
		var got ProviderSeries
		if code := fetch("/v1/provider/"+url.PathEscape(name)+"/series", &got); code != http.StatusOK {
			t.Fatalf("series %s: status %d", name, code)
		}
		if len(got.Raw) != len(days) {
			t.Fatalf("series %s: %d days, want %d", name, len(got.Raw), len(days))
		}
		for i, day := range days {
			if got.Raw[i] != int64(len(truth[day].perProv[p])) {
				t.Errorf("series %s day %s: %d, want %d",
					name, day, got.Raw[i], len(truth[day].perProv[p]))
			}
		}
	}

	// /v1/domain: reconstruct each detected domain's (provider → day set)
	// from the truth maps and demand the served intervals cover exactly
	// those days.
	type domProv struct {
		dom string
		p   int
	}
	expectDays := make(map[domProv]map[simtime.Day]bool)
	for _, day := range days {
		for p := 0; p < np; p++ {
			for dom := range truth[day].perProv[p] {
				k := domProv{dom, p}
				if expectDays[k] == nil {
					expectDays[k] = make(map[simtime.Day]bool)
				}
				expectDays[k][day] = true
			}
		}
	}
	byDomain := make(map[string][]domProv)
	for k := range expectDays {
		byDomain[k.dom] = append(byDomain[k.dom], k)
	}
	checked := 0
	for dom, keys := range byDomain {
		if checked >= 25 {
			break
		}
		checked++
		var got DomainHistory
		if code := fetch("/v1/domain/"+dom, &got); code != http.StatusOK {
			t.Fatalf("domain %s: status %d", dom, code)
		}
		if len(got.Providers) != len(keys) {
			t.Errorf("domain %s: %d providers served, want %d", dom, len(got.Providers), len(keys))
			continue
		}
		allDays := make(map[simtime.Day]bool)
		for _, pu := range got.Providers {
			pi := slices.IndexFunc(refs.Providers, func(p core.ProviderRefs) bool { return p.Name == pu.Provider })
			if pi < 0 {
				t.Fatalf("domain %s: unknown provider %q served", dom, pu.Provider)
			}
			want := expectDays[domProv{dom, pi}]
			servedDays := make(map[simtime.Day]bool)
			for _, iv := range pu.Intervals {
				from, err1 := simtime.Parse(iv.From)
				to, err2 := simtime.Parse(iv.To)
				if err1 != nil || err2 != nil {
					t.Fatalf("domain %s: unparseable interval %+v", dom, iv)
				}
				for d := from; d <= to; d++ {
					if daySet[d] {
						servedDays[d] = true
					}
				}
			}
			for d := range servedDays {
				allDays[d] = true
			}
			if fmt.Sprint(sortedDays(servedDays)) != fmt.Sprint(sortedDays(want)) {
				t.Errorf("domain %s provider %s: served days %v, want %v",
					dom, pu.Provider, sortedDays(servedDays), sortedDays(want))
			}
			if pu.Days != len(want) {
				t.Errorf("domain %s provider %s: days = %d, want %d", dom, pu.Provider, pu.Days, len(want))
			}
		}
		if got.Days != len(allDays) {
			t.Errorf("domain %s: days_detected = %d, want %d", dom, got.Days, len(allDays))
		}
	}
	t.Logf("e2e: %d domains cross-checked over %d days", checked, len(days))

	// A never-measured domain is a clean 404.
	if code := fetch("/v1/domain/never-seen.example", nil); code != http.StatusNotFound {
		t.Errorf("absent domain: status %d, want 404", code)
	}

	// /v1/stats agrees with the index's own accounting.
	var st Stats
	if code := fetch("/v1/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: status %d", code)
	}
	if st.DaysIndexed != len(days) || st.DomainsDetected != len(byDomain) {
		t.Errorf("stats = %+v; want %d days, %d domains", st, len(days), len(byDomain))
	}
}

func sortedDays(m map[simtime.Day]bool) []simtime.Day {
	out := make([]simtime.Day, 0, len(m))
	for d := range m {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
