package api

// Publishing a new index generation onto a live server. The swap itself
// is one atomic pointer store — in-flight requests finish against the
// snapshot they resolved — and the response cache is then invalidated
// *precisely*: only keys whose answers a delta could have changed are
// swept, so a day landing in the feed does not cold-start the cache for
// every other day and domain.
//
// Per route, a delta for days D and domains S invalidates:
//
//   - domain: keys naming a domain in S (including cached 404s for
//     domains that just gained their first detection);
//   - series: every key — the §4.2 smoothing is global over each
//     provider's series, so any new day perturbs every smoothed value;
//   - day:    keys naming a day in D (including cached 404s for a day
//     that just became indexed);
//   - stats:  nothing — stats responses are volatile and never cached.
//
// Keys that fail to parse back into a domain or day are swept
// conservatively.

import (
	"net/url"
	"strings"

	"dpsadopt/internal/simtime"
)

// Freshness is the live-follow digest embedded in /v1/stats when the
// server is tailing a feed (see SetFreshnessFunc).
type Freshness struct {
	// Following is the coordination directory being tailed.
	Following string `json:"following"`
	// Epoch is the served index's version (one per applied delta).
	Epoch uint64 `json:"epoch"`
	// Partitions counts (source, day) partitions applied since start;
	// Lag counts partitions committed upstream but not yet applied;
	// Skipped counts partitions abandoned as damaged (quarantined).
	Partitions int `json:"partitions_applied"`
	Lag        int `json:"lag_partitions"`
	Skipped    int `json:"skipped_partitions"`
	// LastApply is when the newest delta was published (RFC 3339; empty
	// until the first apply).
	LastApply string `json:"last_apply,omitempty"`
}

// SetFreshnessFunc installs the callback /v1/stats uses to report
// live-follow freshness. fn must be safe for concurrent use.
func (s *Server) SetFreshnessFunc(fn func() *Freshness) { s.freshFn.Store(fn) }

// Index returns the currently served index snapshot.
func (s *Server) Index() *Index { return s.idx.Load() }

// Publish atomically swaps the serving index and invalidates exactly
// the cache keys delta touches. A nil delta (initial load, or a full
// rebuild) flushes the whole cache. The old index remains valid for
// requests that already resolved it.
func (s *Server) Publish(idx *Index, delta *Delta) {
	s.idx.Store(idx)
	if s.cache == nil {
		return
	}
	var dropped int
	if delta == nil {
		dropped = s.cache.sweep(func(string) bool { return true })
	} else {
		days := make(map[simtime.Day]bool, len(delta.Days))
		for _, d := range delta.Days {
			days[d] = true
		}
		dropped = s.cache.sweep(func(key string) bool {
			return deltaTouchesKey(delta, days, key)
		})
	}
	mCacheInvalidated.Add(int64(dropped))
}

// deltaTouchesKey decides whether one cache key ("route URI") could
// answer differently under the delta. Unparseable keys report true.
func deltaTouchesKey(delta *Delta, days map[simtime.Day]bool, key string) bool {
	route, uri, ok := strings.Cut(key, " ")
	if !ok {
		return true
	}
	switch route {
	case "series":
		return true
	case "domain":
		raw, ok := pathArg(uri, "/v1/domain/")
		if !ok {
			return true
		}
		name, err := url.PathUnescape(raw)
		if err != nil {
			return true
		}
		// Normalize exactly as handleDomain does before its lookup.
		return delta.Domains[strings.ToLower(strings.TrimSuffix(name, "."))]
	case "day":
		raw, ok := pathArg(uri, "/v1/day/")
		if !ok {
			return true
		}
		d, err := simtime.Parse(raw)
		if err != nil {
			return true
		}
		return days[d]
	default:
		// stats is volatile and never cached; an unknown route has no
		// known shape — sweep it to stay correct.
		return route != "stats"
	}
}

// pathArg extracts the single path argument of a route URI: the segment
// after prefix, with any query string stripped.
func pathArg(uri, prefix string) (string, bool) {
	rest, ok := strings.CutPrefix(uri, prefix)
	if !ok {
		return "", false
	}
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		rest = rest[:i]
	}
	return rest, rest != ""
}
