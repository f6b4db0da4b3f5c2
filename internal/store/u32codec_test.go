package store

import (
	"bytes"
	"crypto/sha256"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestU32CodecEquivalence calls the bulk and the portable column routines
// directly: whatever the length and wherever the source bytes start, both
// must decode the same values and write the same bytes. (On a big-endian
// host the bulk routines are never selected, and would not agree.)
func TestU32CodecEquivalence(t *testing.T) {
	if !littleEndianHost {
		t.Skip("bulk routines are the little-endian path")
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 3, 1023} {
		for mis := 0; mis < 4; mis++ {
			backing := make([]byte, mis+4*n)
			rng.Read(backing)
			p := backing[mis:] // starts mis bytes past an aligned address
			bulk, portable := make([]uint32, n), make([]uint32, n)
			loadU32sBulk(bulk, p)
			loadU32sPortable(portable, p)
			if !reflect.DeepEqual(bulk, portable) {
				t.Fatalf("n=%d misaligned by %d: bulk and portable decodes differ", n, mis)
			}
			var wb, wp bytes.Buffer
			if err := writeU32sBulk(&wb, bulk); err != nil {
				t.Fatal(err)
			}
			if err := writeU32sPortable(&wp, bulk); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wb.Bytes(), wp.Bytes()) || !bytes.Equal(wb.Bytes(), p) {
				t.Fatalf("n=%d misaligned by %d: written bytes differ from each other or from the source", n, mis)
			}
		}
	}
}

// TestSaveSameBytesEitherWriter: the file Save writes is byte-identical
// whichever column writer encode is handed.
func TestSaveSameBytesEitherWriter(t *testing.T) {
	s := growingStore(7, []string{"com", "net"}, 3, 400, 25)
	path := filepath.Join(t.TempDir(), "data.dpsa")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(saved)
	writers := map[string]func(io.Writer, []uint32) error{"portable": writeU32sPortable}
	if littleEndianHost {
		writers["bulk"] = writeU32sBulk
	}
	for name, putU32s := range writers {
		var buf bytes.Buffer
		if err := s.encode(&buf, putU32s); err != nil {
			t.Fatal(err)
		}
		if got := sha256.Sum256(buf.Bytes()); got != want {
			t.Errorf("%s writer: sha256 %x, Save wrote %x", name, got, want)
		}
	}
}
