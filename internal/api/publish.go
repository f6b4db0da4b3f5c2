package api

// Publishing a new index generation onto a live server is one atomic
// pointer store: in-flight requests finish against the snapshot they
// resolved, and the next request resolves the new one. No answer needs
// invalidating. Each generation memoizes its own answers (Index), and
// Apply gives every domain and day the delta touched, and every series,
// a fresh unrendered slot, while untouched answers — identical under
// both generations — stay shared. A render that began on the old
// generation can only store into the old generation's slot.

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

// Publish atomically swaps the serving index. The old index remains
// valid for requests that already resolved it. delta is unused: Publish
// keeps the follow.Sink signature, which the benchmark harness's traced
// sink also implements.
func (s *Server) Publish(idx *Index, delta *Delta) {
	s.idx.Store(idx)
}
