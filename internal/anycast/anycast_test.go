package anycast

import (
	"testing"

	"clientmap/internal/geo"
	"clientmap/internal/netx"
)

func TestCatalogComposition(t *testing.T) {
	pops := Catalog()
	if len(pops) != 45 {
		t.Fatalf("catalog has %d PoPs, want 45", len(pops))
	}
	probed, verified, inactive := 0, 0, 0
	names := map[string]bool{}
	for _, p := range pops {
		if names[p.Name] {
			t.Errorf("duplicate PoP name %s", p.Name)
		}
		names[p.Name] = true
		switch {
		case p.Active && p.CloudReachable:
			probed++
		case p.Active:
			verified++
		default:
			inactive++
		}
		if !p.Active && p.CloudReachable {
			t.Errorf("PoP %s cloud-reachable but inactive", p.Name)
		}
	}
	if probed != 22 || verified != 5 || inactive != 18 {
		t.Errorf("composition = %d/%d/%d, want 22/5/18", probed, verified, inactive)
	}
	// The PoPs named in Figure 2 must exist and be probed.
	for _, name := range []string{"grq", "dls", "chs", "zrh"} {
		if !names[name] {
			t.Errorf("PoP %s missing", name)
		}
	}
}

func TestRouterClientDeterministic(t *testing.T) {
	r := NewRouter(1, Catalog())
	p := netx.MustParsePrefix("10.1.2.0/24").FirstSlash24()
	c := geo.Coord{Lat: 52.0, Lon: 5.0}
	first := r.PoPForClient(p, c)
	for i := 0; i < 10; i++ {
		if got := r.PoPForClient(p, c); got != first {
			t.Fatal("client routing not deterministic")
		}
	}
}

func TestRouterMostClientsNearby(t *testing.T) {
	r := NewRouter(2, Catalog())
	amsterdam := geo.Coord{Lat: 52.37, Lon: 4.9}
	var ob [scratchPoPs]int
	var db [scratchPoPs]float64
	nearest := r.nearest(ob[:0], db[:0], amsterdam, r.activeIdx)[0]
	nearestCount, total := 0, 2000
	for i := 0; i < total; i++ {
		p := netx.Slash24(i * 7)
		popIdx := r.PoPForClient(p, amsterdam)
		if popIdx == nearest {
			nearestCount++
		}
		if !r.PoPs()[popIdx].Active {
			t.Fatal("client routed to inactive PoP")
		}
	}
	frac := float64(nearestCount) / float64(total)
	// popRankProbs sends ~72% to the nearest site; the rest detour.
	if frac < 0.6 || frac > 0.85 {
		t.Errorf("%.0f%% of Dutch prefixes routed to the nearest PoP, want ~72%%", frac*100)
	}
}

func TestClientsCanReachNonCloudPoPs(t *testing.T) {
	// Hong Kong clients should sometimes land on the hkg site even though
	// no cloud vantage can: that is what makes those prefixes invisible to
	// cache probing (appendix A.1).
	r := NewRouter(3, Catalog())
	hk := geo.Coord{Lat: 22.3, Lon: 114.2}
	var hkgIdx int
	for i, p := range r.PoPs() {
		if p.Name == "hkg" {
			hkgIdx = i
		}
	}
	hits := 0
	for i := 0; i < 1000; i++ {
		if r.PoPForClient(netx.Slash24(i*3+1), hk) == hkgIdx {
			hits++
		}
	}
	if hits == 0 {
		t.Error("no Hong Kong prefix ever routed to hkg")
	}
}

func TestVantageNeverReachesNonCloudPoP(t *testing.T) {
	r := NewRouter(4, Catalog())
	for _, v := range CloudVantages() {
		idx := r.PoPForVantage(v.Coord)
		if idx < 0 {
			t.Fatalf("vantage %s reached no PoP", v.Name)
		}
		pop := r.PoPs()[idx]
		if !pop.Active || !pop.CloudReachable {
			t.Errorf("vantage %s reached non-cloud PoP %s", v.Name, pop.Name)
		}
	}
}

func TestVantagesCoverAllProbedPoPs(t *testing.T) {
	r := NewRouter(5, Catalog())
	reached := map[string]bool{}
	for _, v := range CloudVantages() {
		idx := r.PoPForVantage(v.Coord)
		if idx >= 0 {
			reached[r.PoPs()[idx].Name] = true
		}
	}
	for _, p := range Catalog() {
		if p.Active && p.CloudReachable && !reached[p.Name] {
			t.Errorf("probed PoP %s unreachable from every vantage", p.Name)
		}
	}
}

func TestExpectedLoad(t *testing.T) {
	r := NewRouter(6, Catalog())
	prefixes := []netx.Slash24{1, 2, 3}
	coords := []geo.Coord{{Lat: 52, Lon: 5}, {Lat: 52, Lon: 5}, {Lat: 35.6, Lon: 139.7}}
	weights := []float64{1, 2, 4}
	load := r.ExpectedLoad(prefixes, coords, weights)
	var total float64
	for _, v := range load {
		total += v
	}
	if total != 7 {
		t.Errorf("total load %v, want 7", total)
	}
	// Nil weights default to 1 each.
	load = r.ExpectedLoad(prefixes, coords, nil)
	total = 0
	for _, v := range load {
		total += v
	}
	if total != 3 {
		t.Errorf("unweighted total %v, want 3", total)
	}
}

func TestRouterSeedChangesDetours(t *testing.T) {
	a := NewRouter(10, Catalog())
	b := NewRouter(11, Catalog())
	c := geo.Coord{Lat: 40, Lon: -100}
	diff := 0
	for i := 0; i < 500; i++ {
		p := netx.Slash24(i)
		if a.PoPForClient(p, c) != b.PoPForClient(p, c) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("routing identical across seeds; detour sampling ignores seed")
	}
}
