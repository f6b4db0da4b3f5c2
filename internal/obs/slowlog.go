package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSlowLogSize is the per-route capacity of the slow-query log.
const DefaultSlowLogSize = 32

// SlowQuery is one retained request in the slow-query log: enough
// context to answer "what was slow and why" without replaying traffic —
// the request detail and where the latency went past admission and
// cache.
type SlowQuery struct {
	Route     string    `json:"route"`
	Detail    string    `json:"detail"`
	Seconds   float64   `json:"seconds"`
	Status    int       `json:"status"`
	CacheHit  bool      `json:"cache_hit"`
	Coalesced bool      `json:"coalesced,omitempty"`
	Admission string    `json:"admission"`
	At        time.Time `json:"at"`
}

// SlowLog keeps the N slowest requests per route in bounded memory. Each
// route holds a min-heap on Seconds plus an atomic floor: once the heap
// is full, requests faster than the slowest-retained floor are rejected
// with a single atomic load, so the steady-state hot path does not take
// the heap lock.
type SlowLog struct {
	perRoute int
	mu       sync.RWMutex
	routes   map[string]*slowRouteLog
}

type slowRouteLog struct {
	floorBits atomic.Uint64 // float64 bits; -1 until the heap is full
	mu        sync.Mutex
	entries   []SlowQuery // min-heap on Seconds
}

// NewSlowLog creates a slow log retaining perRoute entries per route
// (<=0 uses DefaultSlowLogSize).
func NewSlowLog(perRoute int) *SlowLog {
	if perRoute <= 0 {
		perRoute = DefaultSlowLogSize
	}
	return &SlowLog{perRoute: perRoute, routes: make(map[string]*slowRouteLog)}
}

// Capacity returns the per-route retention limit.
func (l *SlowLog) Capacity() int { return l.perRoute }

// Record offers one request to the log; it is retained if its route's
// heap has room or it is slower than the current floor.
func (l *SlowLog) Record(q SlowQuery) {
	r := l.route(q.Route)
	if !r.aboveFloor(q.Seconds) {
		return
	}
	r.offer(q, l.perRoute)
}

// aboveFloor reports whether a latency would currently be retained: a
// single atomic load, so hot paths can skip building the SlowQuery (and
// its Detail string) for the common fast request.
func (r *slowRouteLog) aboveFloor(seconds float64) bool {
	return seconds > math.Float64frombits(r.floorBits.Load())
}

func (r *slowRouteLog) offer(q SlowQuery, perRoute int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) < perRoute {
		r.entries = append(r.entries, q)
		r.siftUp(len(r.entries) - 1)
		if len(r.entries) == perRoute {
			r.floorBits.Store(math.Float64bits(r.entries[0].Seconds))
		}
		return
	}
	if q.Seconds <= r.entries[0].Seconds {
		return // raced below the floor
	}
	r.entries[0] = q
	r.siftDown(0)
	r.floorBits.Store(math.Float64bits(r.entries[0].Seconds))
}

// Entries returns the retained queries for one route, slowest first.
func (l *SlowLog) Entries(route string) []SlowQuery {
	l.mu.RLock()
	r := l.routes[route]
	l.mu.RUnlock()
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]SlowQuery(nil), r.entries...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Seconds > out[j].Seconds })
	return out
}

// Routes lists routes with retained entries, sorted.
func (l *SlowLog) Routes() []string {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]string, 0, len(l.routes))
	for name := range l.routes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func (l *SlowLog) route(name string) *slowRouteLog {
	l.mu.RLock()
	r := l.routes[name]
	l.mu.RUnlock()
	if r != nil {
		return r
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if r = l.routes[name]; r == nil {
		r = &slowRouteLog{entries: make([]SlowQuery, 0, l.perRoute)}
		r.floorBits.Store(math.Float64bits(-1))
		l.routes[name] = r
	}
	return r
}

func (r *slowRouteLog) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if r.entries[p].Seconds <= r.entries[i].Seconds {
			return
		}
		r.entries[p], r.entries[i] = r.entries[i], r.entries[p]
		i = p
	}
}

func (r *slowRouteLog) siftDown(i int) {
	n := len(r.entries)
	for {
		min, l, rt := i, 2*i+1, 2*i+2
		if l < n && r.entries[l].Seconds < r.entries[min].Seconds {
			min = l
		}
		if rt < n && r.entries[rt].Seconds < r.entries[min].Seconds {
			min = rt
		}
		if min == i {
			return
		}
		r.entries[i], r.entries[min] = r.entries[min], r.entries[i]
		i = min
	}
}

// slowLogResponse is the /debug/slowlog body.
type slowLogResponse struct {
	PerRouteCapacity int                    `json:"per_route_capacity"`
	Routes           map[string][]SlowQuery `json:"routes"`
}

// Handler serves the log as JSON: `?route=` filters to one route, `?n=`
// caps entries per route. Entries are slowest-first.
func (l *SlowLog) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		routes := l.Routes()
		if want := r.URL.Query().Get("route"); want != "" {
			routes = []string{want}
		}
		n := l.perRoute
		if s := r.URL.Query().Get("n"); s != "" {
			if v, err := strconv.Atoi(s); err == nil && v > 0 {
				n = v
			}
		}
		resp := slowLogResponse{PerRouteCapacity: l.perRoute, Routes: make(map[string][]SlowQuery, len(routes))}
		for _, route := range routes {
			entries := l.Entries(route)
			if entries == nil {
				continue
			}
			if len(entries) > n {
				entries = entries[:n]
			}
			resp.Routes[route] = entries
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	})
}
