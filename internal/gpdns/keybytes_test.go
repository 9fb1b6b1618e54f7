package gpdns

import (
	"fmt"
	"testing"

	"clientmap/internal/authdns"
	"clientmap/internal/netx"
)

// TestLazyKeyBytesMatchSprintf pins the lazy-fill hash keys: the
// per-domain midstates NewLazyFill computes, continued by fillKey and
// cachedScope, must hash exactly the fmt.Sprintf keys
// "authdns/scope/<name>/<block>", "traffic/ev(t)/gpdns/<name>/<natural>/<pop>/<pool>"
// and "gpdns/flip/<name>/<natural>/<pop>/<pool>/<fill>" (with its suffix
// draws), or every lazily filled cache line in the simulated resolver
// would move to a different arrival time and scope.
func TestLazyKeyBytesMatchSprintf(t *testing.T) {
	srv, model, _ := lazySetup(t, 31)
	lf := srv.LazyFill()
	seed := model.W.Cfg.Seed
	naturals := []netx.Prefix{
		netx.MustParsePrefix("10.0.0.0/20"),
		netx.MustParsePrefix("203.0.113.0/24"),
		netx.MustParsePrefix("0.0.0.0/16"),
	}
	for di, d := range lf.doms {
		mids := lf.mids[di]
		if want := authdns.ScopeMid(seed, d.Name); mids.scope != want {
			t.Errorf("%s: scope midstate %d, want %d", d.Name, mids.scope, want)
		}
		for _, natural := range naturals {
			if got, want := natural.FoldHash(mids.scope).Sum64(), seed.Hash64(fmt.Sprintf("authdns/scope/%s/%s", d.Name, natural)); got != want {
				t.Errorf("%s %s: scope key hash %d, want %d", d.Name, natural, got, want)
			}
			for _, pp := range [][2]int{{0, 0}, {3, 1}, {12, 7}, {105, 15}} {
				popIdx, poolIdx := pp[0], pp[1]
				line := fmt.Sprintf("gpdns/%s/%s/%d/%d", d.Name, natural, popIdx, poolIdx)
				if got, want := fillKey(mids.ev, natural, popIdx, poolIdx).Sum64(), seed.Hash64("traffic/ev/"+line); got != want {
					t.Errorf("%s: ev key hash %d, want %d", line, got, want)
				}
				if got, want := fillKey(mids.evt, natural, popIdx, poolIdx).Sum64(), seed.Hash64("traffic/evt/"+line); got != want {
					t.Errorf("%s: evt key hash %d, want %d", line, got, want)
				}
				const fill = int64(1609459200123456789)
				flip := fmt.Sprintf("gpdns/flip/%s/%s/%d/%d/%d", d.Name, natural, popIdx, poolIdx, fill)
				base := fillKey(mids.flip, natural, popIdx, poolIdx).Byte('/').Int(fill)
				if got, want := base.Sum64(), seed.Hash64(flip); got != want {
					t.Errorf("%s: flip key hash %d, want %d", flip, got, want)
				}
				for _, suffix := range []string{"/mag", "/m2", "/m3", "/sign"} {
					if got, want := base.String(suffix).Sum64(), seed.Hash64(flip+suffix); got != want {
						t.Errorf("%s%s: suffix key hash %d, want %d", flip, suffix, got, want)
					}
				}
			}
		}
	}
}
