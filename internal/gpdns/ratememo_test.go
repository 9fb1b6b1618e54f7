package gpdns

import (
	"sync"
	"testing"

	"clientmap/internal/domains"
	"clientmap/internal/netx"
)

// TestRatesForConcurrentFirstTouch starts many goroutines on one cold
// rate line at once: all must get the same *scopeRates, built once, and
// later lookups must keep returning it.
func TestRatesForConcurrentFirstTouch(t *testing.T) {
	srv, model, _ := lazySetup(t, 31)
	lf := srv.LazyFill()
	di := lf.catalog["www.google.com"]
	scope := model.W.Prefixes[len(model.W.Prefixes)/2].P.Prefix()
	const workers = 32
	got := make([]*scopeRates, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w] = lf.ratesFor(di, scope)
		}(w)
	}
	close(start)
	wg.Wait()
	for w, r := range got {
		if r == nil || r != got[0] {
			t.Fatalf("worker %d got line %p, worker 0 got %p", w, r, got[0])
		}
	}
	if again := lf.ratesFor(di, scope); again != got[0] {
		t.Fatal("a later lookup returned a different line")
	}
	lf.Invalidate()
	if rebuilt := lf.ratesFor(di, scope); rebuilt == got[0] {
		t.Fatal("Invalidate kept the old line")
	} else if !sameRates(rebuilt, got[0]) {
		t.Fatal("rebuilt line differs from the original on an unchanged world")
	}
}

// TestRateMemoGrowsUnderConcurrentReads fills the memo from several
// goroutines with far more lines than its initial tables hold, so every
// shard grows several times while other goroutines look lines up; every
// line must be found under its own key and built exactly once.
func TestRateMemoGrowsUnderConcurrentReads(t *testing.T) {
	var m rateMemo
	m.reset()
	const writers, lines = 4, 20000
	var builds sync.Map
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < lines; i++ {
				// Writers walk the same keys in different orders, so lines
				// are both raced for and read while other shards grow.
				k := uint64((i*(2*w+1))%lines)<<8 | 24
				r := m.get(k)
				if r == nil {
					r = m.getOrBuild(k, func() *scopeRates {
						if _, dup := builds.LoadOrStore(k, true); dup {
							t.Errorf("line %d built twice", k)
						}
						return &scopeRates{}
					})
				}
				if r.key != k {
					t.Errorf("lookup of %d returned line %d", k, r.key)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < lines; i++ {
		if k := uint64(i)<<8 | 24; m.get(k) == nil {
			t.Fatalf("line %d missing after the fill", k)
		}
	}
	if m.get(uint64(lines)<<8|24) != nil {
		t.Fatal("found a line that was never inserted")
	}
}

// TestRateKeyDistinct checks that the packed key separates catalog index,
// address and prefix length.
func TestRateKeyDistinct(t *testing.T) {
	seen := map[uint64]string{}
	for di := range domains.Catalog() {
		for _, p := range []string{"10.0.0.0/16", "10.0.0.0/24", "10.0.1.0/24", "255.255.255.0/24", "0.0.0.0/0"} {
			k := rateKey(di, netx.MustParsePrefix(p))
			id := p + "@" + domains.Catalog()[di].Name
			if prev, dup := seen[k]; dup {
				t.Fatalf("rateKey collision: %s and %s", prev, id)
			}
			seen[k] = id
		}
	}
}

func sameRates(a, b *scopeRates) bool {
	if a.key != b.key || a.lon != b.lon || a.diurn != b.diurn || len(a.perPoP) != len(b.perPoP) {
		return false
	}
	for i := range a.perPoP {
		if a.perPoP[i] != b.perPoP[i] {
			return false
		}
	}
	return true
}
