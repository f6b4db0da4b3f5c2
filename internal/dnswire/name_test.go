package dnswire

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{"", ".", false},
		{".", ".", false},
		{"example.com", "example.com", false},
		{"Example.COM", "example.com", false},
		{"example.com.", "example.com", false},
		{"WWW.Example.Com.", "www.example.com", false},
		{"a-b_c.example", "a-b_c.example", false},
		{"*.example.com", "*.example.com", false},
		{"123.example", "123.example", false},
		{"ex..com", "", true},
		{".com", "", true},
		{"bad char.com", "", true},
		{"per%cent.com", "", true},
		{strings.Repeat("a", 64) + ".com", "", true},
		{strings.Repeat("a", 63) + ".com", strings.Repeat("a", 63) + ".com", false},
	}
	for _, c := range cases {
		got, err := CanonicalName(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("CanonicalName(%q) = %q, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("CanonicalName(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCanonicalNameTotalLength(t *testing.T) {
	// 4 labels of 63 bytes = 4*64+1 = 257 wire octets: too long.
	l := strings.Repeat("a", 63)
	long := strings.Join([]string{l, l, l, l}, ".")
	if _, err := CanonicalName(long); err == nil {
		t.Fatalf("expected length error for %d-octet name", len(long)+2)
	}
	// 3 labels of 63 plus one of 61 = 255 octets exactly: allowed.
	ok := strings.Join([]string{l, l, l, strings.Repeat("a", 61)}, ".")
	if _, err := CanonicalName(ok); err != nil {
		t.Fatalf("255-octet name rejected: %v", err)
	}
}

func TestWildcardOnlyLeading(t *testing.T) {
	if _, err := CanonicalName("a.*.com"); err == nil {
		t.Error("interior wildcard label accepted")
	}
	if _, err := CanonicalName("a*.com"); err == nil {
		t.Error("embedded asterisk accepted")
	}
}

func TestLabelsAndParent(t *testing.T) {
	if got := Labels("www.example.com"); len(got) != 3 || got[0] != "www" || got[2] != "com" {
		t.Errorf("Labels = %v", got)
	}
	if Labels(".") != nil {
		t.Error("Labels(root) should be nil")
	}
	if got := Parent("www.example.com"); got != "example.com" {
		t.Errorf("Parent = %q", got)
	}
	if got := Parent("com"); got != "." {
		t.Errorf("Parent(com) = %q", got)
	}
	if got := Parent("."); got != "." {
		t.Errorf("Parent(.) = %q", got)
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"www.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", ".", true},
		{"badexample.com", "example.com", false},
		{"example.com", "www.example.com", false},
		{"com", ".", true},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

// noComp is the nil compressor: names are emitted in full.
var noComp *compressor

func TestNameWireRoundTrip(t *testing.T) {
	names := []string{".", "com", "example.com", "www.example.com", "a.b.c.d.e.f"}
	for _, n := range names {
		buf, err := noComp.appendName(nil, n)
		if err != nil {
			t.Fatalf("appendName(%q): %v", n, err)
		}
		got, off, err := unpackName(buf, 0)
		if err != nil {
			t.Fatalf("unpackName(%q): %v", n, err)
		}
		if got != n {
			t.Errorf("round trip %q -> %q", n, got)
		}
		if off != len(buf) {
			t.Errorf("offset after %q = %d, want %d", n, off, len(buf))
		}
	}
}

func TestNameCompressionRoundTrip(t *testing.T) {
	comp := new(compressor)
	var buf []byte
	var err error
	names := []string{"www.example.com", "example.com", "mail.example.com", "example.com"}
	var offs []int
	for _, n := range names {
		offs = append(offs, len(buf))
		if buf, err = comp.appendName(buf, n); err != nil {
			t.Fatal(err)
		}
	}
	// Second "example.com" should be a bare 2-byte pointer.
	if got := len(buf) - offs[3]; got != 2 {
		t.Errorf("compressed repeat took %d bytes, want 2", got)
	}
	for i, n := range names {
		got, _, err := unpackName(buf, offs[i])
		if err != nil {
			t.Fatalf("unpack %q: %v", n, err)
		}
		if got != n {
			t.Errorf("unpack at %d = %q, want %q", offs[i], got, n)
		}
	}
}

func TestUnpackNameRejectsLoops(t *testing.T) {
	// Pointer at offset 0 pointing to itself is forward-or-equal: rejected.
	if _, _, err := unpackName([]byte{0xC0, 0x00}, 0); err == nil {
		t.Error("self-pointer accepted")
	}
	// Two pointers pointing at each other.
	msg := []byte{0xC0, 0x02, 0xC0, 0x00}
	if _, _, err := unpackName(msg, 2); err == nil {
		t.Error("pointer loop accepted")
	}
	// Truncated label.
	if _, _, err := unpackName([]byte{5, 'a', 'b'}, 0); err == nil {
		t.Error("truncated label accepted")
	}
	// Reserved label type.
	if _, _, err := unpackName([]byte{0x80, 0x00}, 0); err == nil {
		t.Error("reserved label type accepted")
	}
}

// randomName generates a syntactically valid canonical name.
func randomName(r *rand.Rand) string {
	const chars = "abcdefghijklmnopqrstuvwxyz0123456789-_"
	n := 1 + r.Intn(4)
	labels := make([]string, n)
	for i := range labels {
		l := 1 + r.Intn(12)
		b := make([]byte, l)
		for j := range b {
			b[j] = chars[r.Intn(len(chars)-2)] // avoid '-'/'_' at random spots being an issue; they are legal anyway
		}
		labels[i] = string(b)
	}
	return strings.Join(labels, ".")
}

func TestQuickNameRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		buf, err := noComp.appendName(nil, n)
		if err != nil {
			return false
		}
		got, _, err := unpackName(buf, 0)
		return err == nil && got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickCanonicalIdempotent(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := randomName(r)
		c1, err := CanonicalName(n)
		if err != nil {
			return false
		}
		c2, err := CanonicalName(c1)
		return err == nil && c1 == c2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
