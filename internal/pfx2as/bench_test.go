package pfx2as

import (
	"bytes"
	"math/rand"
	"net/netip"
	"testing"
)

// Ablation: the flattened-interval table against the linear-scan oracle
// on a Routeviews-sized synthetic table (DESIGN.md §5).

func benchEntries(n int) []Entry {
	r := rand.New(rand.NewSource(7))
	entries := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		bits := []int{8, 12, 16, 20, 24}[r.Intn(5)]
		a := netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), 0})
		entries = append(entries, Entry{
			Prefix:  netip.PrefixFrom(a, bits).Masked(),
			Origins: Origins{uint32(1 + r.Intn(65000))},
		})
	}
	return entries
}

func benchAddrs(n int) []netip.Addr {
	r := rand.New(rand.NewSource(9))
	addrs := make([]netip.Addr, n)
	for i := range addrs {
		addrs[i] = netip.AddrFrom4([4]byte{byte(1 + r.Intn(223)), byte(r.Intn(256)), byte(r.Intn(256)), byte(r.Intn(256))})
	}
	return addrs
}

func benchLookup(b *testing.B, tbl Table) {
	addrs := benchAddrs(1024)
	b.ReportAllocs()
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Lookup(addrs[i%len(addrs)]); ok {
			hits++
		}
	}
	_ = hits
}

func BenchmarkAblationPfx2asWalk(b *testing.B) {
	benchLookup(b, NewWalk(benchEntries(50_000)))
}

func BenchmarkAblationPfx2asScan(b *testing.B) {
	benchLookup(b, scan(benchEntries(2_000))) // linear scan: smaller table or the bench never finishes
}

func BenchmarkPfx2asParse(b *testing.B) {
	entries := benchEntries(10_000)
	var text []byte
	for _, e := range entries {
		text = append(text, []byte(e.Prefix.Addr().String())...)
		text = append(text, '\t')
		text = appendInt(text, e.Prefix.Bits())
		text = append(text, '\t')
		text = appendInt(text, int(e.Origins[0]))
		text = append(text, '\n')
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func appendInt(b []byte, v int) []byte {
	if v == 0 {
		return append(b, '0')
	}
	var tmp [12]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(b, tmp[i:]...)
}
