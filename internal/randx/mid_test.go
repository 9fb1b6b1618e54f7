package randx

import (
	"math"
	"strconv"
	"testing"
)

// decimalEdges are the integers whose digit counts and signs the
// decimal folds must get right: single digit, the first two-digit
// value, an octet's maximum, and the int64 extremes. Read as uint64
// (the fuzz target folds each both ways), -1 and MinInt64 are the
// uint64 maximum and 2⁶³.
var decimalEdges = []int64{0, 9, 10, 99, 100, 255, 1000, -1, -9, -10, -255, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}

// midOf folds key into the seed's state piece by piece, cutting at each
// offset in cuts (taken modulo the remaining length) and alternating the
// Bytes, String and Byte folds, so every way of splitting a key is
// exercised.
func midOf(seed Seed, key []byte, cuts []byte) Mid {
	m := seed.Mid()
	rest := key
	for i, c := range cuts {
		if len(rest) == 0 {
			break
		}
		n := int(c) % (len(rest) + 1)
		switch i % 3 {
		case 0:
			m = m.Bytes(rest[:n])
		case 1:
			m = m.String(string(rest[:n]))
		default:
			for _, b := range rest[:n] {
				m = m.Byte(b)
			}
		}
		rest = rest[n:]
	}
	return m.Bytes(rest)
}

// FuzzMidstateMatchesHash is the midstate contract: for any key split
// into any pieces, the folded state equals Hash64B and Hash64 of the
// concatenated key, and the decimal folds equal hashing the digits
// strconv appends.
func FuzzMidstateMatchesHash(f *testing.F) {
	f.Add(uint64(2021), []byte("authdns/scope/en.wikipedia.org/10.0.0.0/16"), []byte{14, 17, 1}, int64(255))
	f.Add(uint64(0), []byte(""), []byte{}, int64(0))
	for _, v := range decimalEdges {
		f.Add(uint64(7), []byte("cacheprobe/txid/probe/3/fra/"), []byte{5, 0, 200}, v)
	}
	f.Fuzz(func(t *testing.T, seed uint64, key []byte, cuts []byte, n int64) {
		s := Seed(seed)
		m := midOf(s, key, cuts)
		if got, want := m.Sum64(), s.Hash64B(key); got != want {
			t.Fatalf("split %v of %q: Mid = %d, Hash64B = %d", cuts, key, got, want)
		}
		if got, want := m.Sum64(), s.Hash64(string(key)); got != want {
			t.Fatalf("split %v of %q: Mid = %d, Hash64 = %d", cuts, key, got, want)
		}
		if got, want := m.Unit(), s.HashUnitB(key); got != want {
			t.Fatalf("split %v of %q: Unit = %v, HashUnitB = %v", cuts, key, got, want)
		}
		withInt := strconv.AppendInt(append([]byte(nil), key...), n, 10)
		if got, want := m.Int(n).Sum64(), s.Hash64B(withInt); got != want {
			t.Fatalf("%q + Int(%d) = %d, want Hash64B(%q) = %d", key, n, got, withInt, want)
		}
		withUint := strconv.AppendUint(append([]byte(nil), key...), uint64(n), 10)
		if got, want := m.Uint(uint64(n)).Sum64(), s.Hash64B(withUint); got != want {
			t.Fatalf("%q + Uint(%d) = %d, want Hash64B(%q) = %d", key, uint64(n), got, withUint, want)
		}
	})
}

// TestMidAllocs: folding into a midstate, decimal digits included,
// allocates nothing.
func TestMidAllocs(t *testing.T) {
	seed := Seed(99)
	base := seed.Mid().String("authdns/scope/www.wikipedia.org/")
	var sink uint64
	allocs := testing.AllocsPerRun(1000, func() {
		sink += base.Uint(198).Byte('.').Uint(51).Byte('.').Int(-100).Sum64()
	})
	if allocs != 0 {
		t.Errorf("midstate folds allocate %.1f per run, want 0", allocs)
	}
	_ = sink
}
