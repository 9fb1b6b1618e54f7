package randx

// source is math/rand's default source — Mitchell and Reeds' additive
// lagged Fibonacci generator x[n] = x[n-607] + x[n-273] over 64-bit words —
// reimplemented so that seeding is O(1). Every draw is bit-identical to
// rand.NewSource(seed)'s for every seed; the equivalence tests and
// FuzzSourceMatchesMathRand pin that, and every golden corpus rests on it.
//
// math/rand's Seed fills the whole 607-word register up front: 1,841
// steps of the Lehmer generator x' = 48271·x mod (2³¹−1) with a Schrage
// division each, about 10 µs, which the per-item reseeding loops (the
// root-trace generator, the traffic and CDN samplers) paid once per
// sample. Here Seed only records the reduced seed x₀. Register entry i is
// the same closed form math/rand computes sequentially,
//
//	vec[i] = x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i],  xₙ = 48271ⁿ·x₀ mod (2³¹−1),
//
// evaluated from the power table seedMul when the entry is first read.
// Which entries a draw reads first is fixed by the draw's index since the
// last Seed: draw j (1-based) reads feed entry 334−j and tap entry 607−j,
// so during the first 334 draws every feed entry is untouched, tap entries
// are untouched while they are ≥ 334 (the first 273 draws), and after
// draw 334 the whole register has been materialized. No per-entry marks
// or generation counters are needed, and the state is the size of
// math/rand's.
type source struct {
	tap, feed int
	// fresh counts the draws left in the materialization window.
	fresh int
	// x0 is the seed reduced into [1, 2³¹−2], as math/rand reduces it.
	x0  uint64
	vec [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	// rngFresh is the number of draws after a Seed that read an entry
	// for the first time (every feed entry below rngLen-rngTap).
	rngFresh = rngLen - rngTap
)

// seedMul[i][k] = 48271^(21+3i+k) mod (2³¹−1): the multipliers that give
// register entry i's three Lehmer outputs directly from x₀. math/rand
// discards the first 20 outputs, then takes three per entry.
var seedMul = func() (t [rngLen][3]uint64) {
	x := uint64(1)
	for n := 1; n <= 20+3*rngLen; n++ {
		x = x * 48271 % int32max
		if n > 20 {
			t[(n-21)/3][(n-21)%3] = x
		}
	}
	return t
}()

func newSource(seed int64) *source {
	var s source
	s.Seed(seed)
	return &s
}

// Seed positions the source at the start of seed's sequence, reducing the
// seed exactly as math/rand does (mod 2³¹−1, with 0 mapped to 89482311).
func (s *source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	s.fresh = rngFresh
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// entry computes register entry i of the current seed.
func (s *source) entry(i int) int64 {
	m := &seedMul[i]
	return int64(m[0]*s.x0%int32max)<<40 ^ int64(m[1]*s.x0%int32max)<<20 ^
		int64(m[2]*s.x0%int32max) ^ rngCooked[i]
}

// Uint64 returns the next 64-bit value of the sequence.
func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.fresh--
		s.vec[s.feed] = s.entry(s.feed)
		if s.tap >= rngLen-rngTap {
			s.vec[s.tap] = s.entry(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value with its top bit cleared.
func (s *source) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}
