package anycast

import (
	"sort"
	"testing"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// popForClientConcat is the routing function as it stood before the
// allocation-free rewrite: sort.Slice over fresh slices and hash keys
// concatenated from p.String(). PoPForClient must agree with it on
// every input, or every route in every dataset would move.
func popForClientConcat(r *Router, p netx.Slash24, c geo.Coord) int {
	type dp struct {
		idx int
		d   float64
	}
	ds := make([]dp, len(r.activeIdx))
	for i, idx := range r.activeIdx {
		ds[i] = dp{idx, geo.DistanceKm(c, r.pops[idx].Coord)}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].d != ds[j].d {
			return ds[i].d < ds[j].d
		}
		return ds[i].idx < ds[j].idx
	})
	order := make([]int, len(ds))
	for i, d := range ds {
		order[i] = d.idx
	}
	var kept []int
	for _, idx := range order {
		pop := r.pops[idx]
		if pop.Active && !pop.CloudReachable &&
			r.seed.HashUnit("anycast/small/"+p.String()+"/"+pop.Name) < 0.75 {
			continue
		}
		kept = append(kept, idx)
	}
	if len(kept) > 0 {
		order = kept
	}
	u := r.seed.HashUnit("anycast/client/" + p.String())
	acc := 0.0
	for k, prob := range popRankProbs {
		if k >= len(order) {
			break
		}
		acc += prob
		if u < acc {
			return order[k]
		}
	}
	n := len(order)
	if n > 6 {
		n = 6
	}
	return order[int(r.seed.Hash64("anycast/detour/"+p.String()))%n]
}

// TestPoPForClientMatchesConcat routes prefixes spread over the whole
// /24 space from coordinates spread over the globe, including every
// PoP site (zero distance) and its antipode, through both
// implementations.
func TestPoPForClientMatchesConcat(t *testing.T) {
	r := NewRouter(2021, Catalog())
	rng := randx.Seed(7).New("anycast/route-test")
	coords := []geo.Coord{{Lat: 0, Lon: 0}, {Lat: 90, Lon: 0}, {Lat: -90, Lon: 180}}
	for _, pop := range r.PoPs() {
		coords = append(coords, pop.Coord, geo.Coord{Lat: -pop.Coord.Lat, Lon: pop.Coord.Lon - 180})
	}
	for i := 0; i < 20000; i++ {
		p := netx.Slash24(rng.Uint32() % netx.NumSlash24s)
		c := geo.Coord{Lat: rng.Float64()*180 - 90, Lon: rng.Float64()*360 - 180}
		if i < len(coords) {
			c = coords[i]
		}
		if got, want := r.PoPForClient(p, c), popForClientConcat(r, p, c); got != want {
			t.Fatalf("PoPForClient(%v, %+v) = %d, concatenation version routes to %d", p, c, got, want)
		}
	}
}

// TestRouteKeyBytesMatchConcat pins the byte-built routing keys against
// the string concatenations they replaced.
func TestRouteKeyBytesMatchConcat(t *testing.T) {
	for _, s := range []string{"0.0.0.0/24", "10.1.2.0/24", "203.0.113.0/24", "255.255.255.0/24"} {
		p := netx.MustParsePrefix(s).FirstSlash24()
		var keyb [64]byte
		key := append(keyb[:0], "anycast/small/"...)
		key = p.AppendTo(key)
		key = append(key, '/')
		base := len(key)
		for _, pop := range Catalog() {
			if got, want := string(append(key[:base], pop.Name...)), "anycast/small/"+p.String()+"/"+pop.Name; got != want {
				t.Errorf("small-site key = %q, want %q", got, want)
			}
		}
		if got, want := string(p.AppendTo(append(keyb[:0], "anycast/client/"...))), "anycast/client/"+p.String(); got != want {
			t.Errorf("client key = %q, want %q", got, want)
		}
		if got, want := string(p.AppendTo(append(keyb[:0], "anycast/detour/"...))), "anycast/detour/"+p.String(); got != want {
			t.Errorf("detour key = %q, want %q", got, want)
		}
	}
}

// routeSink keeps benchmarked routing calls observable to the compiler.
var routeSink int

// routeAllocs measures PoPForClient's allocations per call.
func routeAllocs() float64 {
	r := NewRouter(2021, Catalog())
	c := geo.Coord{Lat: 22.3, Lon: 114.2} // near the small non-cloud sites
	i := 0
	return testing.AllocsPerRun(1000, func() {
		routeSink = r.PoPForClient(netx.Slash24(i*7919), c)
		i++
	})
}

// TestPoPForClientAllocs gates routing at zero allocations per call.
func TestPoPForClientAllocs(t *testing.T) {
	if a := routeAllocs(); a != 0 {
		t.Errorf("PoPForClient allocates %.1f per call, want 0", a)
	}
}

// BenchmarkPoPForClient times one routing decision; it fails when a
// call allocates, so `make bench-smoke` carries the zero-alloc gate.
func BenchmarkPoPForClient(b *testing.B) {
	if a := routeAllocs(); a != 0 {
		b.Fatalf("PoPForClient allocates %.1f per call, want 0", a)
	}
	r := NewRouter(2021, Catalog())
	c := geo.Coord{Lat: 50.1, Lon: 8.7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routeSink = r.PoPForClient(netx.Slash24(i), c)
	}
}
