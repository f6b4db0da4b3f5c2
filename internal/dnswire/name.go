package dnswire

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// Name-handling rules for this package: a domain name is represented in Go
// as a lowercase dotted string without a trailing dot; the root zone is the
// one-character string ".". CanonicalName normalises external input into
// this form, and all comparisons in the measurement stack operate on
// canonical names.

// Limits from RFC 1035 §2.3.4.
const (
	maxLabelLen = 63
	maxNameLen  = 255 // total wire-format octets
)

// Errors returned by name validation and decoding.
var (
	ErrNameTooLong    = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label")
	ErrBadPointer     = errors.New("dnswire: bad compression pointer")
	ErrTruncatedName  = errors.New("dnswire: truncated name")
	ErrBadLabelByte   = errors.New("dnswire: invalid character in label")
	ErrPointerForward = errors.New("dnswire: compression pointer does not point backward")
)

// CanonicalName normalises a domain name: lowercases ASCII, strips a single
// trailing dot, and validates label lengths and characters. The root name
// is returned as ".". A name with nothing to lowercase is returned as is
// (less the trailing dot), without a copy.
func CanonicalName(name string) (string, error) {
	if name == "" || name == "." {
		return ".", nil
	}
	name = strings.TrimSuffix(name, ".")
	var lower []byte // copy of name, made at the first uppercase byte
	wire := 1        // terminal zero octet
	start := 0
	for i := 0; i <= len(name); i++ {
		if i == len(name) || name[i] == '.' {
			l := i - start
			if l == 0 {
				return "", ErrEmptyLabel
			}
			if l > maxLabelLen {
				return "", ErrLabelTooLong
			}
			wire += 1 + l
			start = i + 1
			continue
		}
		c := name[i]
		switch {
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9', c == '-', c == '_':
		case 'A' <= c && c <= 'Z':
			if lower == nil {
				lower = []byte(name)
			}
			lower[i] = c + ('a' - 'A')
		case c == '*' && i == 0 && (i+1 == len(name) || name[i+1] == '.'):
			// Allow a leading "*" label (wildcard owner names appear in
			// zone files even though our lookup path does not expand them).
		default:
			return "", fmt.Errorf("%w: %q in %q", ErrBadLabelByte, c, name)
		}
	}
	if wire > maxNameLen {
		return "", ErrNameTooLong
	}
	if lower == nil {
		return name, nil
	}
	return string(lower), nil
}

// Labels splits a canonical name into its labels, most-significant last
// ("www.example.com" → ["www" "example" "com"]). The root name has no labels.
func Labels(name string) []string {
	if name == "." || name == "" {
		return nil
	}
	return strings.Split(name, ".")
}

// Parent returns the name with its leftmost label removed
// ("www.example.com" → "example.com"); the parent of a single-label name is
// the root ".".
func Parent(name string) string {
	if name == "." || name == "" {
		return "."
	}
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return "."
}

// IsSubdomain reports whether child is equal to or ends with a label
// boundary followed by parent. Both must be canonical. Every name is a
// subdomain of the root.
func IsSubdomain(child, parent string) bool {
	if parent == "." || parent == "" {
		return true
	}
	if child == parent {
		return true
	}
	return strings.HasSuffix(child, "."+parent)
}

// compressor records where in the message being packed each name suffix
// was first emitted, so later names can point at it (RFC 1035 §4.1.4). A
// message carries a handful of names, so the entries sit in a fixed array
// searched linearly and spill to a map only past it. A nil *compressor
// disables compression.
type compressor struct {
	base  int // index in buf where the message starts; offsets are relative to it
	n     int
	ents  [compInline]compEntry
	spill map[string]int
}

type compEntry struct {
	suffix string
	off    int
}

// compInline covers a TLD referral with its full NS set and glue.
const compInline = 32

var compPool = sync.Pool{New: func() any { return new(compressor) }}

// release clears the entries, so the pool pins no caller's strings, and
// returns c to the pool.
func (c *compressor) release() {
	clear(c.ents[:c.n])
	c.n = 0
	clear(c.spill)
	compPool.Put(c)
}

func (c *compressor) lookup(suffix string) (int, bool) {
	for i := range c.ents[:c.n] {
		if c.ents[i].suffix == suffix {
			return c.ents[i].off, true
		}
	}
	off, ok := c.spill[suffix]
	return off, ok
}

// insert records a suffix that lookup did not find; a suffix is therefore
// recorded once, at its first emission.
func (c *compressor) insert(suffix string, off int) {
	if c.n < len(c.ents) {
		c.ents[c.n] = compEntry{suffix, off}
		c.n++
		return
	}
	if c.spill == nil {
		c.spill = make(map[string]int)
	}
	c.spill[suffix] = off
}

// appendName appends the wire encoding of a canonical name to buf. Unless
// c is nil, suffixes already emitted into the message are replaced with
// compression pointers and newly emitted suffixes within pointer range are
// recorded.
func (c *compressor) appendName(buf []byte, name string) ([]byte, error) {
	if name == "" || name == "." {
		return append(buf, 0), nil
	}
	rest := name
	for rest != "" {
		if c != nil {
			if off, ok := c.lookup(rest); ok {
				return append(buf, 0xC0|byte(off>>8), byte(off)), nil
			}
			if off := len(buf) - c.base; off <= 0x3FFF {
				c.insert(rest, off)
			}
		}
		label := rest
		if i := strings.IndexByte(rest, '.'); i >= 0 {
			label, rest = rest[:i], rest[i+1:]
		} else {
			rest = ""
		}
		if label == "" {
			return nil, ErrEmptyLabel
		}
		if len(label) > maxLabelLen {
			return nil, ErrLabelTooLong
		}
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	return append(buf, 0), nil
}

// unpackName decodes a (possibly compressed) name starting at off in msg.
// It returns the canonical name and the offset of the first byte after the
// name's in-place representation. Compression pointers must point strictly
// backward, which bounds the walk and rejects loops.
func unpackName(msg []byte, off int) (string, int, error) {
	var name [maxNameLen]byte // total <= maxNameLen bounds labels plus dots
	n := 0
	next := -1 // offset after the name, set when the first pointer is taken
	ptrBudget := len(msg)
	total := 0
	for {
		if off >= len(msg) {
			return "", 0, ErrTruncatedName
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if next < 0 {
				next = off + 1
			}
			if n == 0 {
				return ".", next, nil
			}
			return string(name[:n]), next, nil
		case c&0xC0 == 0xC0:
			if off+1 >= len(msg) {
				return "", 0, ErrTruncatedName
			}
			target := (c&0x3F)<<8 | int(msg[off+1])
			if target >= off {
				return "", 0, ErrPointerForward
			}
			if next < 0 {
				next = off + 2
			}
			off = target
			ptrBudget--
			if ptrBudget <= 0 {
				return "", 0, ErrBadPointer
			}
		case c&0xC0 != 0:
			return "", 0, fmt.Errorf("dnswire: reserved label type 0x%02x", c&0xC0)
		default:
			if off+1+c > len(msg) {
				return "", 0, ErrTruncatedName
			}
			total += c + 1
			if total > maxNameLen {
				return "", 0, ErrNameTooLong
			}
			if n > 0 {
				name[n] = '.'
				n++
			}
			for _, b := range msg[off+1 : off+1+c] {
				name[n] = lowerByte(b)
				n++
			}
			off += 1 + c
		}
	}
}
