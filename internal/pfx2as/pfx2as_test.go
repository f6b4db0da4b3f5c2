package pfx2as

import (
	"math/rand"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"dpsadopt/internal/bgp"
)

const sampleData = `# comment line
10.0.0.0	8	100
10.1.0.0	16	200
10.1.2.0	24	300
203.0.113.0	24	19551_55002
198.51.100.0	24	26415,21740
2001:db8::	32	64500
`

func parseSample(t *testing.T) []Entry {
	t.Helper()
	entries, err := Parse(strings.NewReader(sampleData))
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestParse(t *testing.T) {
	entries := parseSample(t)
	if len(entries) != 6 {
		t.Fatalf("parsed %d entries", len(entries))
	}
	if entries[3].Origins == nil || !reflect.DeepEqual(entries[3].Origins, Origins{19551, 55002}) {
		t.Errorf("MOAS origins = %v", entries[3].Origins)
	}
	if !reflect.DeepEqual(entries[4].Origins, Origins{26415, 21740}) {
		t.Errorf("comma origins = %v", entries[4].Origins)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"10.0.0.0 8",              // missing origins
		"10.0.0.0 99 100",         // bad length
		"not-an-ip 8 100",         // bad prefix
		"10.0.0.0 8 not-an-asn",   // bad ASN
		"10.0.0.0 8 100 extra ok", // too many fields
	}
	for i, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("case %d accepted: %q", i, line)
		}
	}
}

// scan is the oracle the Walk table is checked against: a linear pass
// tracking the longest match, the latest entry winning among duplicates.
type scan []Entry

func (s scan) Lookup(addr netip.Addr) (Origins, bool) {
	best := -1
	var out Origins
	for _, e := range s {
		if e.Prefix.Contains(addr) && e.Prefix.Bits() >= best {
			best = e.Prefix.Bits()
			out = e.Origins
		}
	}
	return out, best >= 0
}

func (s scan) Len() int {
	seen := map[netip.Prefix]bool{}
	for _, e := range s {
		seen[e.Prefix] = true
	}
	return len(seen)
}

func tables(entries []Entry) map[string]Table {
	return map[string]Table{
		"walk": NewWalk(entries),
		"scan": scan(entries),
	}
}

func TestLookupMostSpecific(t *testing.T) {
	entries := parseSample(t)
	cases := []struct {
		addr string
		want Origins
		ok   bool
	}{
		{"10.1.2.3", Origins{300}, true},
		{"10.1.0.1", Origins{200}, true},
		{"10.77.0.1", Origins{100}, true},
		{"203.0.113.200", Origins{19551, 55002}, true},
		{"192.168.1.1", nil, false},
		{"2001:db8::1", Origins{64500}, true},
		{"2001:db9::1", nil, false},
	}
	for name, tbl := range tables(entries) {
		for _, c := range cases {
			got, ok := tbl.Lookup(netip.MustParseAddr(c.addr))
			if ok != c.ok || (c.ok && !reflect.DeepEqual(got, c.want)) {
				t.Errorf("%s.Lookup(%s) = %v, %v; want %v, %v", name, c.addr, got, ok, c.want, c.ok)
			}
		}
		if tbl.Len() != 6 {
			t.Errorf("%s.Len = %d", name, tbl.Len())
		}
	}
}

func entry(prefix string, origins ...uint32) Entry {
	return Entry{Prefix: netip.MustParsePrefix(prefix), Origins: origins}
}

// probes returns the addresses at which a table built from entries can
// change its answer: the first and last address of every prefix and the
// addresses one below and above each of them.
func probes(entries []Entry) []netip.Addr {
	var out []netip.Addr
	around := func(a netip.Addr) {
		out = append(out, a)
		if p := a.Prev(); p.IsValid() {
			out = append(out, p)
		}
		if n := a.Next(); n.IsValid() {
			out = append(out, n)
		}
	}
	for _, e := range entries {
		first := e.Prefix.Addr()
		last := first.AsSlice()
		for bit := e.Prefix.Bits(); bit < len(last)*8; bit++ {
			last[bit/8] |= 0x80 >> (bit % 8)
		}
		lastAddr, _ := netip.AddrFromSlice(last)
		around(first)
		around(lastAddr)
	}
	return out
}

// agree checks Walk against the oracle at every probe address.
func agree(t *testing.T, entries []Entry, addrs []netip.Addr) bool {
	t.Helper()
	walk, oracle := NewWalk(entries), scan(entries)
	ok := true
	if walk.Len() != oracle.Len() {
		t.Errorf("Len = %d, oracle %d", walk.Len(), oracle.Len())
		ok = false
	}
	for _, a := range addrs {
		got, gotOK := walk.Lookup(a)
		want, wantOK := oracle.Lookup(a)
		if gotOK != wantOK || !reflect.DeepEqual(got, want) {
			t.Errorf("Lookup(%v) = %v, %v; oracle %v, %v", a, got, gotOK, want, wantOK)
			ok = false
		}
	}
	return ok
}

// randomEntries builds a table exercising every shape the interval sweep
// has to get right, at random positions.
func randomEntries(r *rand.Rand) []Entry {
	origins := func() Origins {
		o := Origins{uint32(1 + r.Intn(50))}
		if r.Intn(8) == 0 {
			o = append(o, uint32(1+r.Intn(50))) // MOAS
		}
		return o
	}
	var entries []Entry
	add := func(a netip.Addr, bits int, o Origins) {
		entries = append(entries, Entry{Prefix: netip.PrefixFrom(a, bits).Masked(), Origins: o})
	}
	rand4 := func() netip.Addr {
		// A small first-octet range makes unrelated prefixes collide.
		return netip.AddrFrom4([4]byte{byte(r.Intn(4)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	for i, n := 0, 3+r.Intn(12); i < n; i++ {
		a := rand4()
		switch r.Intn(7) {
		case 0: // three deep, the children at random offsets inside the parent
			add(a, 6+r.Intn(8), origins())
			add(a, 14+r.Intn(8), origins())
			add(a, 22+r.Intn(11), origins())
		case 1: // two children of one parent with a gap of the parent between them
			add(a, 16, origins())
			b := a.As4()
			b[2] = byte(r.Intn(256))
			add(netip.AddrFrom4(b), 24, origins())
			b[2] = byte(r.Intn(256))
			add(netip.AddrFrom4(b), 22+r.Intn(6), origins())
		case 2: // adjacent siblings, equal origins
			o := origins()
			b := a.As4()
			b[2] &^= 1
			add(netip.AddrFrom4(b), 24, o)
			b[2] |= 1
			add(netip.AddrFrom4(b), 24, o)
		case 3: // duplicate prefix, different origins: the later one counts
			bits := 8 + r.Intn(25)
			add(a, bits, origins())
			add(a, bits, origins())
		case 4: // host route
			add(a, 32, origins())
		case 5: // IPv6, nested
			a6 := netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, byte(r.Intn(4)), byte(r.Intn(256))})
			add(a6, 32+r.Intn(17), origins())
			if r.Intn(2) == 0 {
				add(a6, 48+r.Intn(81), origins())
			}
		default:
			add(a, 1+r.Intn(31), origins())
		}
	}
	if r.Intn(4) == 0 {
		add(netip.IPv4Unspecified(), 0, origins())
	}
	if r.Intn(3) == 0 { // ends at 255.255.255.255
		add(netip.AddrFrom4([4]byte{255, 255, 255, 255}), 1+r.Intn(32), origins())
	}
	if r.Intn(4) == 0 {
		add(netip.IPv6Unspecified(), 0, origins())
	}
	r.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	return entries
}

// TestImplementationsAgree cross-checks the flattened-interval Walk
// against the linear-scan oracle: on fixed tables for the shapes that
// have gone wrong before, then on randomly generated ones, probing both
// ends of every prefix and their neighbours.
func TestImplementationsAgree(t *testing.T) {
	fixed := map[string][]Entry{
		"empty": nil,
		// Several prefixes sharing network address 0: the retired
		// backward-scan table stopped at 0.0.0.0/24 without reaching the
		// /8 sorted before it (quick seed -437688259875120756).
		"shared-zero-start": {entry("0.0.0.0/8", 987), entry("0.0.0.0/24", 1), entry("0.200.0.0/16", 2)},
		"default-route":     {entry("0.0.0.0/0", 1), entry("128.0.0.0/1", 2), entry("255.255.255.255/32", 3), entry("0.0.0.0/32", 4)},
		"tail":              {entry("255.255.255.0/24", 1), entry("255.255.255.128/25", 2)},
		"duplicates":        {entry("10.0.0.0/8", 1), entry("10.0.0.0/8", 2), entry("10.0.0.0/9", 3), entry("10.0.0.0/9", 4)},
		"siblings":          {entry("10.0.0.0/16", 1), entry("10.0.2.0/24", 2), entry("10.0.3.0/24", 2), entry("10.0.9.0/24", 3)},
		"v6-only":           {entry("2001:db8::/32", 1), entry("2001:db8:1::/48", 2), entry("::/0", 3)},
	}
	for name, entries := range fixed {
		t.Run(name, func(t *testing.T) {
			addrs := append(probes(entries), netip.MustParseAddr("0.241.125.126"), netip.MustParseAddr("1.0.0.1"),
				netip.MustParseAddr("10.0.5.5"), netip.MustParseAddr("2001:db9::1"))
			agree(t, entries, addrs)
		})
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		entries := randomEntries(r)
		addrs := probes(entries)
		for i := 0; i < 100; i++ {
			addrs = append(addrs, netip.AddrFrom4([4]byte{byte(r.Intn(5)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))}))
		}
		if !agree(t, entries, addrs) {
			t.Logf("seed %d entries %v", seed, entries)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRIBSnapshotRoundTrip feeds a bgp.RIB snapshot through Parse and
// checks lookups find each address's most specific announcement, MOAS
// included — the exact path the daily measurement pipeline takes.
func TestRIBSnapshotRoundTrip(t *testing.T) {
	rib := bgp.NewRIB()
	rib.Announce(netip.MustParsePrefix("10.0.0.0/8"), 100)
	rib.Announce(netip.MustParsePrefix("10.1.0.0/16"), 200)
	rib.Announce(netip.MustParsePrefix("203.0.113.0/24"), 19551)
	rib.Announce(netip.MustParsePrefix("203.0.113.0/24"), 55002)

	entries, err := Parse(strings.NewReader(rib.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewWalk(entries)
	for _, c := range []struct {
		addr string
		want Origins
	}{
		{"10.0.0.1", Origins{100}},
		{"10.1.2.3", Origins{200}},
		{"203.0.113.9", Origins{19551, 55002}},
		{"192.0.2.1", nil},
	} {
		got, ok := tbl.Lookup(netip.MustParseAddr(c.addr))
		if ok != (c.want != nil) || !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: table %v/%v, want %v", c.addr, got, ok, c.want)
		}
	}
}
