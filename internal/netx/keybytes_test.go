package netx

import (
	"testing"
	"testing/quick"

	"clientmap/internal/randx"
)

// TestAppendToMatchesString pins the allocation-free formatters against
// String(): every hash key that embeds an address or prefix is byte-built
// with AppendTo, and the determinism of those keys rests on the two
// renderings never diverging.
func TestAppendToMatchesString(t *testing.T) {
	addrProp := func(raw uint32) bool {
		a := Addr(raw)
		return string(a.AppendTo(nil)) == a.String()
	}
	if err := quick.Check(addrProp, nil); err != nil {
		t.Errorf("Addr.AppendTo diverges from String: %v", err)
	}
	prefixProp := func(raw uint32, bits uint8) bool {
		p := PrefixFrom(Addr(raw), int(bits%33))
		return string(p.AppendTo(nil)) == p.String()
	}
	if err := quick.Check(prefixProp, nil); err != nil {
		t.Errorf("Prefix.AppendTo diverges from String: %v", err)
	}
	s24Prop := func(raw uint32) bool {
		s := Addr(raw).Slash24()
		return string(s.AppendTo(nil)) == s.Prefix().String()
	}
	if err := quick.Check(s24Prop, nil); err != nil {
		t.Errorf("Slash24.AppendTo diverges from Prefix().String: %v", err)
	}
}

// TestAppendToReusesBuffer: AppendTo must append (not overwrite), so key
// builders can compose prefixes into larger keys.
func TestAppendToReusesBuffer(t *testing.T) {
	p := PrefixFrom(Addr(0xC0000200), 24)
	buf := append([]byte{}, "key/"...)
	buf = p.AppendTo(buf)
	if got, want := string(buf), "key/"+p.String(); got != want {
		t.Errorf("composed key = %q, want %q", got, want)
	}
}

// TestFoldHashMatchesAppendTo: folding a prefix into a hash midstate
// equals hashing the bytes AppendTo renders, so keys hashed from
// midstates keep every value the byte-built keys had.
func TestFoldHashMatchesAppendTo(t *testing.T) {
	base := randx.Seed(2021).Mid().String("k/")
	prefixProp := func(raw uint32, bits uint8) bool {
		p := PrefixFrom(Addr(raw), int(bits%33))
		return p.FoldHash(base) == base.Bytes(p.AppendTo(nil))
	}
	if err := quick.Check(prefixProp, nil); err != nil {
		t.Errorf("Prefix.FoldHash diverges from AppendTo: %v", err)
	}
	for _, p := range []Prefix{{}, PrefixFrom(0xFFFFFFFF, 32), PrefixFrom(0x0A000000, 8), PrefixFrom(0xC6336400, 22)} {
		if p.FoldHash(base) != base.Bytes(p.AppendTo(nil)) {
			t.Errorf("%s: FoldHash diverges from AppendTo", p)
		}
	}
}
