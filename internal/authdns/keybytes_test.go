package authdns

import (
	"fmt"
	"math/rand"
	"testing"

	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// TestNaturalScopeMatchesStringHash re-derives NaturalScope through the
// string-formatted hash key the function used before the zero-alloc
// rewrite. The byte-built key must hash identically or every cached scope
// in the simulated resolver moves, which would invalidate the golden
// campaign corpora.
func TestNaturalScopeMatchesStringHash(t *testing.T) {
	seed := randx.Seed(2021)
	srcs := []netx.Prefix{
		netx.MustParsePrefix("10.0.0.0/24"),
		netx.MustParsePrefix("192.0.2.0/24"),
		netx.MustParsePrefix("198.51.100.0/21"),
	}
	for _, d := range domains.Catalog() {
		if !d.SupportsECS {
			continue
		}
		for _, src := range srcs {
			band := d.Scope.MaxBits - d.Scope.MinBits + 1
			block := netx.PrefixFrom(src.Addr(), d.Scope.MinBits)
			h := seed.Hash64(fmt.Sprintf("authdns/scope/%s/%s", d.Name, block))
			bits := d.Scope.MinBits + int(h%uint64(band))
			if bits > src.Bits() {
				bits = src.Bits()
			}
			want := netx.PrefixFrom(src.Addr(), bits)
			if got := NaturalScope(seed, d, src); got != want {
				t.Errorf("%s src %s: NaturalScope = %s, string-key derivation = %s",
					d.Name, src, got, want)
			}
		}
	}
}

// TestNaturalScopeMidstate checks the per-domain midstate path against
// the string-key formula over every catalog domain and a sample of
// blocks across the address space, for several seeds: ScopeMid must be
// the exact hash state of the key's constant prefix.
func TestNaturalScopeMidstate(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	srcs := []netx.Prefix{
		netx.MustParsePrefix("0.0.0.0/24"),
		netx.MustParsePrefix("255.255.255.0/24"),
		netx.MustParsePrefix("198.51.100.0/21"),
	}
	for i := 0; i < 300; i++ {
		srcs = append(srcs, netx.PrefixFrom(netx.Addr(r.Uint32()), 16+r.Intn(9)))
	}
	for _, seed := range []randx.Seed{0, 2021, 7, ^randx.Seed(0)} {
		for _, d := range domains.Catalog() {
			mid := ScopeMid(seed, d.Name)
			for _, src := range srcs {
				band := d.Scope.MaxBits - d.Scope.MinBits + 1
				block := netx.PrefixFrom(src.Addr(), d.Scope.MinBits)
				h := seed.Hash64(fmt.Sprintf("authdns/scope/%s/%s", d.Name, block))
				bits := d.Scope.MinBits + int(h%uint64(band))
				if bits > src.Bits() {
					bits = src.Bits()
				}
				want := netx.PrefixFrom(src.Addr(), bits)
				if got := NaturalScopeMid(mid, d, src); got != want {
					t.Fatalf("seed %d %s src %s: NaturalScopeMid = %s, string-key formula = %s", seed, d.Name, src, got, want)
				}
				if got := NaturalScope(seed, d, src); got != want {
					t.Fatalf("seed %d %s src %s: NaturalScope = %s, string-key formula = %s", seed, d.Name, src, got, want)
				}
			}
		}
	}
}
