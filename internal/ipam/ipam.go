// Package ipam provides small IP-address-management helpers used by the
// world simulator: carving subnets out of operator supernets and handing
// out host addresses inside a prefix. Everything is deterministic — the
// n-th allocation from a pool is always the same address — which keeps
// simulation runs reproducible.
package ipam

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// Errors returned by allocators.
var (
	ErrExhausted = errors.New("ipam: pool exhausted")
	ErrBadSize   = errors.New("ipam: requested size does not fit")
)

// addrToU64 maps an IPv4 address to an integer. Only IPv4 is supported by
// the arithmetic helpers; the simulator assigns IPv6 addresses through
// direct construction where needed.
func addrToU64(a netip.Addr) (uint64, error) {
	if !a.Is4() {
		return 0, fmt.Errorf("ipam: %v is not IPv4", a)
	}
	b := a.As4()
	return uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3]), nil
}

func u64ToAddr(v uint64) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// NthAddr returns the n-th address inside the IPv4 prefix (0-based),
// erroring if n is outside the prefix.
func NthAddr(p netip.Prefix, n uint64) (netip.Addr, error) {
	base, err := addrToU64(p.Masked().Addr())
	if err != nil {
		return netip.Addr{}, err
	}
	size := uint64(1) << (32 - p.Bits())
	if n >= size {
		return netip.Addr{}, fmt.Errorf("%w: index %d in %v", ErrExhausted, n, p)
	}
	return u64ToAddr(base + n), nil
}

// NthSubnet carves the n-th subnet of the given length out of the IPv4
// prefix (0-based).
func NthSubnet(p netip.Prefix, bits int, n uint64) (netip.Prefix, error) {
	if bits < p.Bits() || bits > 32 {
		return netip.Prefix{}, fmt.Errorf("%w: /%d out of %v", ErrBadSize, bits, p)
	}
	count := uint64(1) << (bits - p.Bits())
	if n >= count {
		return netip.Prefix{}, fmt.Errorf("%w: subnet %d of %d", ErrExhausted, n, count)
	}
	base, err := addrToU64(p.Masked().Addr())
	if err != nil {
		return netip.Prefix{}, err
	}
	step := uint64(1) << (32 - bits)
	return netip.PrefixFrom(u64ToAddr(base+n*step), bits), nil
}

// HostCount returns the number of addresses in an IPv4 prefix.
func HostCount(p netip.Prefix) uint64 {
	if !p.Addr().Is4() {
		return 0
	}
	return 1 << (32 - p.Bits())
}

// Pool deterministically hands out subnets of an IPv4 prefix.
// The zero value is not usable; construct with NewPool.
type Pool struct {
	prefix netip.Prefix
	next   uint64
}

// NewPool creates an address pool over an IPv4 prefix.
func NewPool(p netip.Prefix) (*Pool, error) {
	if !p.Addr().Is4() {
		return nil, fmt.Errorf("ipam: pool prefix %v is not IPv4", p)
	}
	return &Pool{prefix: p.Masked()}, nil
}

// MustPool is NewPool for trusted input; it panics on error.
func MustPool(s string) *Pool {
	p, err := NewPool(netip.MustParsePrefix(s))
	if err != nil {
		panic(err)
	}
	return p
}

// AllocSubnet returns the next unused subnet of the given length, advancing
// the pool cursor past it. The subnet is aligned upward from the cursor, so
// lengths can be mixed; a /32 is one host.
func (p *Pool) AllocSubnet(bits int) (netip.Prefix, error) {
	if bits < p.prefix.Bits() || bits > 32 {
		return netip.Prefix{}, fmt.Errorf("%w: /%d from %v", ErrBadSize, bits, p.prefix)
	}
	step := uint64(1) << (32 - bits)
	// Align cursor to the subnet size.
	aligned := (p.next + step - 1) / step * step
	if aligned+step > HostCount(p.prefix) {
		return netip.Prefix{}, fmt.Errorf("%w: %v", ErrExhausted, p.prefix)
	}
	base, err := NthAddr(p.prefix, aligned)
	if err != nil {
		return netip.Prefix{}, err
	}
	p.next = aligned + step
	return netip.PrefixFrom(base, bits), nil
}

// MaskBitsFor returns the smallest prefix length whose block holds at
// least n addresses.
func MaskBitsFor(n uint64) int {
	if n <= 1 {
		return 32
	}
	return 32 - bits.Len64(n-1)
}

// Nth6Addr returns the n-th address inside an IPv6 prefix (0-based),
// supporting offsets within the low 64 bits.
func Nth6Addr(p netip.Prefix, n uint64) (netip.Addr, error) {
	if !p.Addr().Is6() || p.Addr().Is4In6() {
		return netip.Addr{}, fmt.Errorf("ipam: %v is not IPv6", p)
	}
	if p.Bits() > 64 {
		return netip.Addr{}, fmt.Errorf("%w: v6 prefixes longer than /64", ErrBadSize)
	}
	b := p.Masked().Addr().As16()
	lo := binary.BigEndian.Uint64(b[8:])
	binary.BigEndian.PutUint64(b[8:], lo+n)
	return netip.AddrFrom16(b), nil
}

// Pool6 deterministically carves subnets out of an IPv6 prefix.
type Pool6 struct {
	prefix netip.Prefix
	next   uint64
}

// MustPool6 creates an IPv6 subnet pool; it panics on invalid input.
func MustPool6(s string) *Pool6 {
	p := netip.MustParsePrefix(s)
	if !p.Addr().Is6() || p.Addr().Is4In6() {
		panic(fmt.Sprintf("ipam: %v is not IPv6", p))
	}
	return &Pool6{prefix: p.Masked()}
}

// AllocSubnet returns the next /bits subnet (bits must be in
// (p.Bits(), 64]; subnets are carved sequentially at the subnet stride).
func (p *Pool6) AllocSubnet(bits int) (netip.Prefix, error) {
	if bits <= p.prefix.Bits() || bits > 64 {
		return netip.Prefix{}, fmt.Errorf("%w: /%d from %v", ErrBadSize, bits, p.prefix)
	}
	count := uint64(1) << (bits - p.prefix.Bits())
	if p.next >= count {
		return netip.Prefix{}, fmt.Errorf("%w: %v", ErrExhausted, p.prefix)
	}
	b := p.prefix.Addr().As16()
	hi := binary.BigEndian.Uint64(b[:8])
	lo := binary.BigEndian.Uint64(b[8:])
	// Stride in the 128-bit space: 1 << (128 - bits).
	if bits <= 64 {
		hi += p.next << (64 - bits)
	} else {
		lo += p.next << (128 - bits)
	}
	binary.BigEndian.PutUint64(b[:8], hi)
	binary.BigEndian.PutUint64(b[8:], lo)
	p.next++
	return netip.PrefixFrom(netip.AddrFrom16(b), bits), nil
}
