//go:build !race

package obs

import (
	"testing"
	"time"
)

// TestRecordRequestAllocs holds the per-request record path to zero
// allocations: on a route already seen, RecordRequestAt is one map read
// under a read lock and a few atomic adds into the route's windows, for
// a success and for a 5xx alike. Not under -race, with the other
// allocation ceilings.
func TestRecordRequestAllocs(t *testing.T) {
	o := NewObservatory(ObservatoryConfig{})
	now := time.Now()
	o.RecordRequestAt(now, "domain", 0.001, 200) // creates the route
	n := testing.AllocsPerRun(1000, func() {
		o.RecordRequestAt(now, "domain", 0.0008, 200)
		o.RecordRequestAt(now, "domain", 0.05, 503)
	})
	if n != 0 {
		t.Fatalf("two RecordRequestAt calls allocate %v times, want 0", n)
	}
}
