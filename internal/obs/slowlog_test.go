package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
)

// record offers q to l the way Observatory.RecordRequestAt does.
func record(l *SlowLog, q SlowQuery) {
	if r := l.route(q.Route); r.aboveFloor(q.Seconds) {
		r.offer(q, l.perRoute)
	}
}

func TestSlowLogRetainsSlowest(t *testing.T) {
	l := NewSlowLog(4)
	for i := 1; i <= 10; i++ {
		record(l, SlowQuery{Route: "r", Detail: fmt.Sprintf("q%d", i), Seconds: float64(i)})
	}
	got := l.Entries("r")
	if len(got) != 4 {
		t.Fatalf("retained %d entries, want 4", len(got))
	}
	for i, want := range []float64{10, 9, 8, 7} {
		if got[i].Seconds != want {
			t.Fatalf("entry %d = %v, want %v (slowest first)", i, got[i].Seconds, want)
		}
	}

	// A fast request after the heap is full is rejected on the atomic
	// floor without displacing anything.
	record(l, SlowQuery{Route: "r", Seconds: 0.5})
	if got := l.Entries("r"); len(got) != 4 || got[3].Seconds != 7 {
		t.Fatalf("fast request displaced an entry: %+v", got)
	}

	// A slower one replaces the floor entry.
	record(l, SlowQuery{Route: "r", Seconds: 7.5})
	got = l.Entries("r")
	if got[3].Seconds != 7.5 {
		t.Fatalf("floor not replaced: %+v", got)
	}

	if l.Entries("missing") != nil {
		t.Fatalf("unknown route returned entries")
	}
}

func TestSlowLogRoutesIsolated(t *testing.T) {
	l := NewSlowLog(2)
	record(l, SlowQuery{Route: "a", Seconds: 1})
	record(l, SlowQuery{Route: "b", Seconds: 2})
	if routes := l.Routes(); len(routes) != 2 || routes[0] != "a" || routes[1] != "b" {
		t.Fatalf("routes = %v", routes)
	}
	if len(l.Entries("a")) != 1 || len(l.Entries("b")) != 1 {
		t.Fatalf("routes leaked into each other")
	}
}

func TestSlowLogHandler(t *testing.T) {
	l := NewSlowLog(8)
	for i := 1; i <= 6; i++ {
		record(l, SlowQuery{Route: "domain", Detail: fmt.Sprintf("/v1/domain/d%d.com", i), Seconds: float64(i), Status: 200, Admission: AdmissionOK})
	}
	record(l, SlowQuery{Route: "day", Seconds: 0.5, Status: 200, Admission: AdmissionOK})

	rec := httptest.NewRecorder()
	l.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/slowlog?route=domain&n=3", nil))
	var resp struct {
		PerRouteCapacity int                    `json:"per_route_capacity"`
		Routes           map[string][]SlowQuery `json:"routes"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if resp.PerRouteCapacity != 8 {
		t.Fatalf("capacity = %d", resp.PerRouteCapacity)
	}
	if len(resp.Routes) != 1 {
		t.Fatalf("route filter ignored: %v", resp.Routes)
	}
	entries := resp.Routes["domain"]
	if len(entries) != 3 || entries[0].Seconds != 6 || entries[0].Detail != "/v1/domain/d6.com" {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				record(l, SlowQuery{Route: "r", Seconds: float64(g*1000 + i)})
				if i%100 == 0 {
					l.Entries("r")
				}
			}
		}(g)
	}
	wg.Wait()
	got := l.Entries("r")
	if len(got) != 16 {
		t.Fatalf("retained %d, want 16", len(got))
	}
	// The global slowest must always survive.
	if got[0].Seconds != 7999 {
		t.Fatalf("slowest = %v, want 7999", got[0].Seconds)
	}
}
