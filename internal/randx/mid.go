package randx

// Mid is an FNV-1a hash state part-way through a seeded key. FNV-1a is a
// left fold over the key's bytes, so the state after a prefix is exact:
// continuing it with the rest of the key gives the very hash of the
// whole key. Hot paths whose keys share a constant prefix
// ("authdns/scope/<name>/", "cacheprobe/txid/probe/<pass>/<pop>/") hash
// the prefix once, keep its Mid, and per item fold in only the bytes
// that vary. Mid is a plain value: extending one never changes another.
//
//	seed.Mid().String("a/").Int(7).Sum64() == seed.Hash64("a/7")
type Mid uint64

// Mid returns the state after the seed's 8 bytes (least significant
// first) — the start of every (seed, key) hash in this package.
func (s Seed) Mid() Mid {
	h := Mid(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = (h ^ Mid(byte(s>>(8*i)))) * fnvPrime64
	}
	return h
}

// Bytes continues the hash with b.
func (m Mid) Bytes(b []byte) Mid {
	for _, c := range b {
		m = (m ^ Mid(c)) * fnvPrime64
	}
	return m
}

// String continues the hash with s.
func (m Mid) String(s string) Mid {
	for i := 0; i < len(s); i++ {
		m = (m ^ Mid(s[i])) * fnvPrime64
	}
	return m
}

// Byte continues the hash with one byte.
func (m Mid) Byte(c byte) Mid {
	return (m ^ Mid(c)) * fnvPrime64
}

// Uint continues the hash with the decimal digits of v — the bytes
// strconv.AppendUint(nil, v, 10) returns — without building a key.
func (m Mid) Uint(v uint64) Mid {
	if v < 10 {
		return m.Byte('0' + byte(v))
	}
	// Digits come out least significant first; FNV-1a needs them in
	// reading order, so they wait in a stack array that never escapes.
	var d [20]byte
	i := len(d)
	for v >= 10 {
		q := v / 10
		i--
		d[i] = '0' + byte(v-q*10)
		v = q
	}
	i--
	d[i] = '0' + byte(v)
	return m.Bytes(d[i:])
}

// Int continues the hash with the decimal form of v — the bytes
// strconv.AppendInt(nil, v, 10) returns.
func (m Mid) Int(v int64) Mid {
	if v < 0 {
		// -v wraps for MinInt64, and uint64 of the wrapped value is
		// exactly its magnitude 2⁶³.
		return m.Byte('-').Uint(uint64(-v))
	}
	return m.Uint(uint64(v))
}

// Sum64 is the hash of the whole key: Hash64 of the concatenated key.
func (m Mid) Sum64() uint64 { return uint64(m) }

// Unit is HashUnit of the concatenated key: a uniform float64 in [0,1).
func (m Mid) Unit() float64 { return float64(uint64(m)>>11) / (1 << 53) }
