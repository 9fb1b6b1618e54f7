package randx

import (
	"math"
	"math/rand"
	"testing"
)

// equivalenceSeeds returns the seeds the source is checked on: the edges
// of math/rand's seed reduction (0 and its substitute 89482311, ±1, the
// modulus 2³¹−1 and its neighbours, 2³¹, the int64 extremes) plus 2,000
// seeds spread over the whole int64 range by a splitmix64 walk.
func equivalenceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, int32max - 1, int32max + 1,
		1 << 31, -(1 << 31), math.MinInt64, math.MaxInt64, 89482311, -89482311,
		2 * int32max, 89482311 + int32max,
	}
	x := uint64(2021)
	for i := 0; i < 2000; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		seeds = append(seeds, int64(z^z>>31))
	}
	return seeds
}

// TestSourceMatchesMathRand checks the raw sequence against math/rand's
// source on every equivalence seed, and on every 50th seed (and every
// edge seed) well past two register lengths, where every entry has been
// both materialized and overwritten by the recurrence.
func TestSourceMatchesMathRand(t *testing.T) {
	for i, seed := range equivalenceSeeds() {
		n := 40
		if i < 15 || i%50 == 0 {
			n = 3*rngLen + 5
		}
		got, want := newSource(seed), rand.NewSource(seed).(rand.Source64)
		for d := 0; d < n; d++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, d, g, w)
			}
		}
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("seed %d: Int63 %d, math/rand %d", seed, g, w)
		}
	}
}

// TestRandMethodsMatchMathRand drives the derived samplers a Stream
// exposes — Uint64, Int63, Float64, NormFloat64, Perm, Intn — through
// rand.Rand over both sources, interleaved so every method sees state
// the others left behind.
func TestRandMethodsMatchMathRand(t *testing.T) {
	for i, seed := range equivalenceSeeds() {
		if i%10 != 0 && i >= 15 {
			continue
		}
		got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		for round := 0; round < 20; round++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d round %d: Uint64 %d != %d", seed, round, g, w)
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d round %d: Int63 %d != %d", seed, round, g, w)
			}
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d round %d: Float64 %v != %v", seed, round, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d round %d: NormFloat64 %v != %v", seed, round, g, w)
			}
			if g, w := got.Intn(1000), want.Intn(1000); g != w {
				t.Fatalf("seed %d round %d: Intn %d != %d", seed, round, g, w)
			}
			gp, wp := got.Perm(round+1), want.Perm(round+1)
			for k := range gp {
				if gp[k] != wp[k] {
					t.Fatalf("seed %d round %d: Perm %v != %v", seed, round, gp, wp)
				}
			}
		}
	}
}

// TestReseedMidSequence reseeds one stream, through both Reseed and
// ReseedB, at points inside and beyond the materialization window and
// after more than two register lengths of draws; after each reseed the
// stream must follow a fresh math/rand source for the new key.
func TestReseedMidSequence(t *testing.T) {
	seed := Seed(2021)
	keys := []string{"roots/emit/0/0", "traffic/x/12", "", "cdn/1.2.3.0/24", "roots/emit/41/95"}
	lengths := []int{0, 1, 2, 272, 273, 274, 333, 334, 335, 606, 607, 608, 2*rngLen + 3, 3 * rngLen}
	r := seed.New("initial")
	for i, n := range lengths {
		key := keys[i%len(keys)]
		if i%2 == 0 {
			seed.Reseed(r, key)
		} else {
			seed.ReseedB(r, []byte(key))
		}
		ref := rand.New(rand.NewSource(hashKey(seed, key)))
		for d := 0; d < n; d++ {
			if g, w := r.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("key %q after %d draws: %d != %d", key, d, g, w)
			}
		}
		if g, w := r.Float64(), ref.Float64(); g != w {
			t.Fatalf("key %q: Float64 %v != %v", key, g, w)
		}
	}
}

// TestReseedAtEveryOffset covers the hazard a lazily filled register
// brings: an entry left over from the previous seed being read as if it
// belonged to the new one. The source is reseeded after every draw count
// from 0 through two register lengths — every position of the
// materialization window and of the recurrence that follows — and must
// then match math/rand for long enough to read every entry.
func TestReseedAtEveryOffset(t *testing.T) {
	s := newSource(1)
	for k := 0; k <= 2*rngLen; k++ {
		for d := 0; d < k; d++ {
			s.Uint64()
		}
		seed := int64(k)*7919 - 1000
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for d := 0; d < rngLen+1; d++ {
			if g, w := s.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("reseed after %d draws, seed %d, draw %d: %d != %d", k, seed, d, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand runs an arbitrary program of draws and
// reseeds against math/rand. Each op byte picks a method; reseed ops
// take the next seed from the seed stream.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4})
	f.Add(int64(math.MinInt64), []byte{5, 0, 5, 1})
	f.Add(int64(int32max), []byte{0, 0, 0, 6, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		got, want := rand.New(newSource(seed)), rand.New(rand.NewSource(seed))
		next := seed
		for i, op := range ops {
			switch op % 7 {
			case 0:
				// A burst long enough to cross the materialization window.
				for d := 0; d < int(op); d++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("op %d: Uint64 %d != %d", i, g, w)
					}
				}
			case 1:
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("op %d: Int63 %d != %d", i, g, w)
				}
			case 2:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("op %d: Float64 %v != %v", i, g, w)
				}
			case 3:
				if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
					t.Fatalf("op %d: NormFloat64 %v != %v", i, g, w)
				}
			case 4:
				gp, wp := got.Perm(int(op%32)), want.Perm(int(op%32))
				for k := range gp {
					if gp[k] != wp[k] {
						t.Fatalf("op %d: Perm %v != %v", i, gp, wp)
					}
				}
			case 5:
				next = next*6364136223846793005 + int64(op)
				got.Seed(next)
				want.Seed(next)
			case 6:
				for d := 0; d < 4*int(op); d++ {
					if g, w := got.Int63(), want.Int63(); g != w {
						t.Fatalf("op %d: Int63 %d != %d", i, g, w)
					}
				}
			}
		}
	})
}

// reseedAllocs measures one ReseedB plus the two draws a Poisson sample
// of a small mean typically makes.
func reseedAllocs() float64 {
	seed := Seed(2021)
	r := seed.New("bench")
	key := []byte("traffic/roots/src/7/3/1634515200")
	return testing.AllocsPerRun(1000, func() {
		seed.ReseedB(r, key)
		sinkU64 += r.Uint64() + r.Uint64()
	})
}

var sinkU64 uint64

// BenchmarkReseedB measures a reseed plus two draws, the per-sample cost
// of the reseeding loops. It fails on any allocation, so the benchmark
// smoke run carries the alloc gate.
func BenchmarkReseedB(b *testing.B) {
	if a := reseedAllocs(); a != 0 {
		b.Fatalf("ReseedB + 2 draws allocates %.1f per call, want 0", a)
	}
	seed := Seed(2021)
	r := seed.New("bench")
	key := []byte("traffic/roots/src/7/3/1634515200")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed.ReseedB(r, key)
		sinkU64 += r.Uint64() + r.Uint64()
	}
}
