package store

import (
	"encoding/binary"
	"io"
	"unsafe"
)

// littleEndianHost reports whether a []uint32 column's memory already is
// its on-disk image (the format is little-endian). It selects between the
// bulk and the portable routines below and is nothing a user can set.
var littleEndianHost = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// columnBytes views a column's backing array as bytes. The view is always
// of an aligned column, never the other way round, so file bytes at any
// offset are only ever the plain-[]byte side of a copy.
func columnBytes[T uint32 | Kind](col []T) []byte {
	var elem T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(col))), len(col)*int(unsafe.Sizeof(elem)))
}

// loadU32s decodes len(dst) little-endian uint32s from p (len(p) ==
// 4*len(dst), already bounds- and CRC-checked by the caller).
func loadU32s(dst []uint32, p []byte) {
	if littleEndianHost {
		loadU32sBulk(dst, p)
	} else {
		loadU32sPortable(dst, p)
	}
}

func loadU32sBulk(dst []uint32, p []byte) { copy(columnBytes(dst), p) }

func loadU32sPortable(dst []uint32, p []byte) {
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
}

// writeU32s writes vals to w as little-endian uint32s.
func writeU32s(w io.Writer, vals []uint32) error {
	if littleEndianHost {
		return writeU32sBulk(w, vals)
	}
	return writeU32sPortable(w, vals)
}

func writeU32sBulk(w io.Writer, vals []uint32) error {
	_, err := w.Write(columnBytes(vals))
	return err
}

func writeU32sPortable(w io.Writer, vals []uint32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], v)
	}
	_, err := w.Write(buf)
	return err
}
