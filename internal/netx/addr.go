// Package netx provides compact IPv4 address and prefix types tuned for
// whole-address-space scans, plus prefix sets and a longest-prefix-match
// trie.
//
// The measurement pipelines in this module iterate over millions of /24
// prefixes, so the representations here favor integer arithmetic over the
// more general net/netip types: an Addr is a uint32 and a /24 is a 24-bit
// index. Conversions to and from dotted-quad strings are provided for
// interfaces with wire formats and humans.
package netx

import (
	"fmt"
	"strconv"
	"strings"

	"clientmap/internal/randx"
)

// Addr is an IPv4 address in host byte order (a.b.c.d == a<<24|b<<16|c<<8|d).
type Addr uint32

// AddrFrom4 assembles an Addr from its four dotted-quad octets.
func AddrFrom4(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// ParseAddr parses a dotted-quad IPv4 address such as "192.0.2.1".
func ParseAddr(s string) (Addr, error) {
	var parts [4]uint64
	rest := s
	for i := 0; i < 4; i++ {
		var tok string
		if i < 3 {
			dot := strings.IndexByte(rest, '.')
			if dot < 0 {
				return 0, fmt.Errorf("netx: invalid IPv4 address %q", s)
			}
			tok, rest = rest[:dot], rest[dot+1:]
		} else {
			tok = rest
		}
		v, err := strconv.ParseUint(tok, 10, 8)
		if err != nil {
			return 0, fmt.Errorf("netx: invalid IPv4 address %q", s)
		}
		parts[i] = v
	}
	return AddrFrom4(byte(parts[0]), byte(parts[1]), byte(parts[2]), byte(parts[3])), nil
}

// MustParseAddr is like ParseAddr but panics on invalid input. It is
// intended for constants in tests and catalogs.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// Octets returns the four dotted-quad octets of a.
func (a Addr) Octets() (byte, byte, byte, byte) {
	return byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)
}

// String returns the dotted-quad form of a.
func (a Addr) String() string {
	var buf [15]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted-quad form of a to b — the same bytes
// String returns, without materializing a string. Hot probe loops build
// hash keys with it into reused buffers.
func (a Addr) AppendTo(b []byte) []byte {
	b0, b1, b2, b3 := a.Octets()
	b = strconv.AppendUint(b, uint64(b0), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(b1), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(b2), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(b3), 10)
	return b
}

// Slash24 returns the /24 containing a.
func (a Addr) Slash24() Slash24 { return Slash24(a >> 8) }

// Prefix is an IPv4 CIDR prefix. The address is kept normalized: bits below
// the prefix length are always zero. The zero Prefix is 0.0.0.0/0.
type Prefix struct {
	addr Addr
	bits uint8
}

// PrefixFrom returns the prefix of the given length containing addr,
// zeroing host bits. Lengths above 32 are clamped to 32.
func PrefixFrom(addr Addr, bits int) Prefix {
	if bits < 0 {
		bits = 0
	}
	if bits > 32 {
		bits = 32
	}
	return Prefix{addr: addr & maskFor(bits), bits: uint8(bits)}
}

func maskFor(bits int) Addr {
	if bits <= 0 {
		return 0
	}
	return Addr(^uint32(0) << (32 - uint(bits)))
}

// ParsePrefix parses CIDR notation such as "192.0.2.0/24". Host bits are
// zeroed.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("netx: invalid prefix %q: missing '/'", s)
	}
	addr, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("netx: invalid prefix length in %q", s)
	}
	return PrefixFrom(addr, bits), nil
}

// MustParsePrefix is like ParsePrefix but panics on invalid input.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// Addr returns the network address of p.
func (p Prefix) Addr() Addr { return p.addr }

// Bits returns the prefix length of p.
func (p Prefix) Bits() int { return int(p.bits) }

// Contains reports whether a is inside p.
func (p Prefix) Contains(a Addr) bool {
	return a&maskFor(int(p.bits)) == p.addr
}

// ContainsPrefix reports whether q is entirely inside p (p is equal to or
// less specific than q and they share p's network bits).
func (p Prefix) ContainsPrefix(q Prefix) bool {
	return q.bits >= p.bits && q.addr&maskFor(int(p.bits)) == p.addr
}

// Overlaps reports whether p and q share any address.
func (p Prefix) Overlaps(q Prefix) bool {
	return p.ContainsPrefix(q) || q.ContainsPrefix(p)
}

// NumAddrs returns the number of addresses covered by p.
func (p Prefix) NumAddrs() uint64 { return 1 << (32 - uint(p.bits)) }

// NumSlash24s returns how many whole /24 prefixes p covers. Prefixes more
// specific than /24 report 1: the /24 that contains them.
func (p Prefix) NumSlash24s() int {
	if p.bits >= 24 {
		return 1
	}
	return 1 << (24 - uint(p.bits))
}

// FirstSlash24 returns the first (lowest) /24 covered by or containing p.
func (p Prefix) FirstSlash24() Slash24 { return p.addr.Slash24() }

// Slash24s calls fn for every /24 covered by p in ascending order. For
// prefixes more specific than /24 it calls fn once with the containing /24.
// If fn returns false, iteration stops.
func (p Prefix) Slash24s(fn func(Slash24) bool) {
	first := uint32(p.FirstSlash24())
	n := uint32(p.NumSlash24s())
	for i := uint32(0); i < n; i++ {
		if !fn(Slash24(first + i)) {
			return
		}
	}
}

// String returns CIDR notation for p.
func (p Prefix) String() string {
	var buf [18]byte
	return string(p.AppendTo(buf[:0]))
}

// AppendTo appends CIDR notation for p to b (the same bytes String
// returns).
func (p Prefix) AppendTo(b []byte) []byte {
	b = p.addr.AppendTo(b)
	b = append(b, '/')
	return strconv.AppendUint(b, uint64(p.bits), 10)
}

// FoldHash continues the hash state m with the CIDR bytes AppendTo
// would append, without formatting them.
func (p Prefix) FoldHash(m randx.Mid) randx.Mid {
	b0, b1, b2, b3 := p.addr.Octets()
	m = m.Uint(uint64(b0)).Byte('.').Uint(uint64(b1)).Byte('.').Uint(uint64(b2)).Byte('.').Uint(uint64(b3))
	return m.Byte('/').Uint(uint64(p.bits))
}

// Slash24 identifies one of the 2^24 possible IPv4 /24 prefixes: the top 24
// bits of its addresses.
type Slash24 uint32

// NumSlash24s is the size of the /24 space.
const NumSlash24s = 1 << 24

// Prefix returns s as a Prefix of length 24.
func (s Slash24) Prefix() Prefix {
	return Prefix{addr: Addr(uint32(s) << 8), bits: 24}
}

// Addr returns the network (.0) address of s.
func (s Slash24) Addr() Addr { return Addr(uint32(s) << 8) }

// AddrAt returns the address at the given host offset (0-255) inside s.
func (s Slash24) AddrAt(host byte) Addr { return Addr(uint32(s)<<8 | uint32(host)) }

// String returns s in CIDR notation.
func (s Slash24) String() string { return s.Prefix().String() }

// AppendTo appends s in CIDR notation to b (the same bytes String
// returns).
func (s Slash24) AppendTo(b []byte) []byte { return s.Prefix().AppendTo(b) }
