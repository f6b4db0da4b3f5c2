package dnsclient

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
)

// score is a server's health in [0,1], 1 when it was never queried.
func score(h *healthTable, s netip.AddrPort) float64 {
	if sh := h.servers[s]; sh != nil {
		return sh.score
	}
	return 1
}

func TestHealthScoring(t *testing.T) {
	h := newHealthTable()
	s := netip.MustParseAddrPort("10.0.0.1:53")
	if score(h, s) != 1 {
		t.Errorf("unknown server score = %v, want 1", score(h, s))
	}
	h.fail(s)
	h.fail(s)
	if got := score(h, s); got >= unhealthyScore {
		t.Errorf("score after 2 timeouts = %v, want < %v", got, unhealthyScore)
	}
	if h.penalty(s) != 1 {
		t.Errorf("penalty = %d, want 1 (low score, breaker closed)", h.penalty(s))
	}
	h.ok(s)
	if h.get(s).consecFails != 0 {
		t.Error("success did not reset consecutive-failure count")
	}
}

func TestBreakerTripAndRecovery(t *testing.T) {
	h := newHealthTable()
	s := netip.MustParseAddrPort("10.0.0.2:53")
	for i := 0; i < breakerTrip; i++ {
		h.fail(s)
	}
	if h.penalty(s) != 2 {
		t.Fatalf("penalty after %d consecutive timeouts = %d, want 2 (open)", breakerTrip, h.penalty(s))
	}
	// The breaker stays open for breakerCooldown logical exchanges...
	h.tick += breakerCooldown - 1
	if h.penalty(s) != 2 {
		t.Error("breaker closed before cooldown elapsed")
	}
	// ...then allows a half-open probe.
	h.tick++
	if h.penalty(s) == 2 {
		t.Error("breaker still open after cooldown")
	}
	// A success closes it fully.
	h.ok(s)
	if h.get(s).openUntil != 0 {
		t.Error("success did not close the breaker")
	}
}

func TestOrderRotatesAndSortsHealthyFirst(t *testing.T) {
	h := newHealthTable()
	a := netip.MustParseAddrPort("10.0.0.1:53")
	b := netip.MustParseAddrPort("10.0.0.2:53")
	c := netip.MustParseAddrPort("10.0.0.3:53")
	servers := []netip.AddrPort{a, b, c}
	// With uniform health, rot purely rotates the start.
	if got := h.order(servers, 1); got[0] != b || got[1] != c || got[2] != a {
		t.Errorf("order(rot=1) = %v", got)
	}
	// A breaker-open server sinks to the back regardless of rotation.
	for i := 0; i < breakerTrip; i++ {
		h.fail(b)
	}
	for rot := uint64(0); rot < 6; rot++ {
		got := h.order(servers, rot)
		if got[len(got)-1] != b {
			t.Errorf("order(rot=%d) = %v: open-breaker server not last", rot, got)
		}
	}
	// All-open degrades to plain rotation, not failure.
	for _, s := range servers {
		for i := 0; i < breakerTrip; i++ {
			h.fail(s)
		}
	}
	if got := h.order(servers, 2); got[0] != c {
		t.Errorf("all-open order(rot=2) = %v, want rotation preserved", got)
	}
}

// orderBySort is the formulation order replaced: rotate, then
// sort.SliceStable by penalty. Fault accounting and flow identities depend
// on the exact sequence, so the two must agree everywhere.
func orderBySort(h *healthTable, servers []netip.AddrPort, rot uint64) []netip.AddrPort {
	out := make([]netip.AddrPort, len(servers))
	start := int(rot % uint64(len(servers)))
	for i := range servers {
		out[i] = servers[(start+i)%len(servers)]
	}
	sort.SliceStable(out, func(i, j int) bool {
		return h.penalty(out[i]) < h.penalty(out[j])
	})
	return out
}

func TestOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for round := 0; round < 500; round++ {
		h := newHealthTable()
		n := 1 + r.Intn(13)
		if round%7 == 0 {
			n = 1
		}
		servers := make([]netip.AddrPort, n)
		mode := r.Intn(4) // 0: random health, 1: all open, 2: all healthy, 3: random
		for i := range servers {
			servers[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, byte(round), byte(i)}), 53)
			fails := r.Intn(breakerTrip + 2) // 0 healthy, 2 low score, >= breakerTrip open
			switch mode {
			case 1:
				fails = breakerTrip
			case 2:
				fails = 0
			}
			for f := 0; f < fails; f++ {
				h.fail(servers[i])
			}
		}
		if r.Intn(3) == 0 {
			h.tick += int64(r.Intn(2 * breakerCooldown)) // some breakers past cooldown
		}
		for _, rot := range []uint64{0, 1, uint64(n), r.Uint64()} {
			want := orderBySort(h, servers, rot)
			if got := h.order(servers, rot); !slices.Equal(got, want) {
				t.Fatalf("round %d rot %d: order = %v, stable sort = %v", round, rot, got, want)
			}
		}
	}
}
