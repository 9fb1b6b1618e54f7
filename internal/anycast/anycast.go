// Package anycast models Google Public DNS's anycast deployment: the PoP
// catalog (45 sites, per appendix A.1), which sites announce anycast routes
// and to whom, and how BGP routes a given client prefix or cloud vantage
// point to a site.
//
// The model captures the three facts the paper's methodology depends on:
//
//   - each PoP keeps independent caches, so probes must reach the same PoP
//     a prefix's clients use;
//   - anycast usually routes clients to a nearby PoP, but not always
//     (routing is deterministic per prefix, not per distance rank); and
//   - a handful of sites serve some client traffic yet are unreachable
//     from every cloud provider (the 5 "unprobed and verified" sites), and
//     18 more appear entirely inactive.
package anycast

import (
	"clientmap/internal/geo"
	"clientmap/internal/netx"
	"clientmap/internal/randx"
)

// PoP is one Google Public DNS point of presence.
type PoP struct {
	// Name is the airport-style site code used in measurement output.
	Name    string
	City    string
	Country string
	Region  string
	Coord   geo.Coord
	// Active PoPs announce anycast routes and serve clients.
	Active bool
	// CloudReachable PoPs receive anycast routes from cloud providers'
	// networks; only these can be probed from AWS/Vultr vantage points.
	CloudReachable bool
}

// Catalog returns the 45-site PoP catalog: 22 active and cloud-reachable
// (the probed set), 5 active but not reachable from any cloud (unprobed and
// verified), and 18 inactive (unprobed and unverified).
func Catalog() []PoP {
	mk := func(name, city, country, region string, lat, lon float64, active, cloud bool) PoP {
		return PoP{Name: name, City: city, Country: country, Region: region,
			Coord: geo.Coord{Lat: lat, Lon: lon}, Active: active, CloudReachable: cloud}
	}
	return []PoP{
		// --- 22 probed and verified: US (7 states), Canada (2), Asia (5),
		// Europe (5), South America (2), Australia (1).
		mk("dls", "The Dalles", "US", geo.RegionNorthAmerica, 45.59, -121.18, true, true),
		mk("chs", "Charleston", "US", geo.RegionNorthAmerica, 32.78, -79.93, true, true),
		mk("cbf", "Council Bluffs", "US", geo.RegionNorthAmerica, 41.26, -95.86, true, true),
		mk("iad", "Ashburn", "US", geo.RegionNorthAmerica, 39.04, -77.49, true, true),
		mk("tul", "Tulsa", "US", geo.RegionNorthAmerica, 36.15, -95.99, true, true),
		mk("atl", "Atlanta", "US", geo.RegionNorthAmerica, 33.75, -84.39, true, true),
		mk("lax", "Los Angeles", "US", geo.RegionNorthAmerica, 34.05, -118.24, true, true),
		mk("yul", "Montreal", "CA", geo.RegionNorthAmerica, 45.50, -73.57, true, true),
		mk("yyz", "Toronto", "CA", geo.RegionNorthAmerica, 43.65, -79.38, true, true),
		mk("nrt", "Tokyo", "JP", geo.RegionAsia, 35.68, 139.69, true, true),
		mk("sin", "Singapore", "SG", geo.RegionAsia, 1.35, 103.82, true, true),
		mk("tpe", "Taipei", "TW", geo.RegionAsia, 25.03, 121.56, true, true),
		mk("bom", "Mumbai", "IN", geo.RegionAsia, 19.08, 72.88, true, true),
		mk("icn", "Seoul", "KR", geo.RegionAsia, 37.57, 126.98, true, true),
		mk("grq", "Groningen", "NL", geo.RegionEurope, 53.22, 6.57, true, true),
		mk("zrh", "Zurich", "CH", geo.RegionEurope, 47.38, 8.54, true, true),
		mk("fra", "Frankfurt", "DE", geo.RegionEurope, 50.11, 8.68, true, true),
		mk("dub", "Dublin", "IE", geo.RegionEurope, 53.35, -6.26, true, true),
		mk("lhr", "London", "GB", geo.RegionEurope, 51.51, -0.13, true, true),
		mk("scl", "Santiago", "CL", geo.RegionSouthAmerica, -33.45, -70.67, true, true),
		mk("gru", "Sao Paulo", "BR", geo.RegionSouthAmerica, -23.55, -46.63, true, true),
		mk("syd", "Sydney", "AU", geo.RegionOceania, -33.87, 151.21, true, true),

		// --- 5 unprobed and verified: active, but no cloud reaches them.
		mk("hkg", "Hong Kong", "HK", geo.RegionAsia, 22.32, 114.17, true, false),
		mk("kix", "Osaka", "JP", geo.RegionAsia, 34.69, 135.50, true, false),
		mk("hem", "Hamina", "FI", geo.RegionEurope, 60.57, 27.20, true, false),
		mk("mad", "Madrid", "ES", geo.RegionEurope, 40.42, -3.70, true, false),
		mk("waw", "Warsaw", "PL", geo.RegionEurope, 52.23, 21.01, true, false),

		// --- 18 unprobed and unverified: no anycast announcement observed.
		mk("pdx", "Portland", "US", geo.RegionNorthAmerica, 45.52, -122.68, false, false),
		mk("mex", "Mexico City", "MX", geo.RegionNorthAmerica, 19.43, -99.13, false, false),
		mk("eze", "Buenos Aires", "AR", geo.RegionSouthAmerica, -34.60, -58.38, false, false),
		mk("bog", "Bogota", "CO", geo.RegionSouthAmerica, 4.71, -74.07, false, false),
		mk("cdg", "Paris", "FR", geo.RegionEurope, 48.86, 2.35, false, false),
		mk("bru", "Brussels", "BE", geo.RegionEurope, 50.85, 4.35, false, false),
		mk("mxp", "Milan", "IT", geo.RegionEurope, 45.46, 9.19, false, false),
		mk("arn", "Stockholm", "SE", geo.RegionEurope, 59.33, 18.07, false, false),
		mk("otp", "Bucharest", "RO", geo.RegionEurope, 44.43, 26.10, false, false),
		mk("hel", "Helsinki", "FI", geo.RegionEurope, 60.17, 24.94, false, false),
		mk("del", "Delhi", "IN", geo.RegionAsia, 28.61, 77.21, false, false),
		mk("cgk", "Jakarta", "ID", geo.RegionAsia, -6.21, 106.85, false, false),
		mk("tlv", "Tel Aviv", "IL", geo.RegionAsia, 32.07, 34.79, false, false),
		mk("dxb", "Dubai", "AE", geo.RegionAsia, 25.20, 55.27, false, false),
		mk("los", "Lagos", "NG", geo.RegionAfrica, 6.52, 3.38, false, false),
		mk("jnb", "Johannesburg", "ZA", geo.RegionAfrica, -26.20, 28.05, false, false),
		mk("mel", "Melbourne", "AU", geo.RegionOceania, -37.81, 144.96, false, false),
		mk("khh", "Changhua", "TW", geo.RegionAsia, 24.08, 120.54, false, false),
	}
}

// Router deterministically maps client prefixes and vantage points to PoPs.
type Router struct {
	seed randx.Seed
	pops []PoP
	// activeIdx and cloudIdx hold catalog indices of candidate PoPs.
	activeIdx []int
	cloudIdx  []int
}

// NewRouter builds a router over the given catalog (use Catalog()).
func NewRouter(seed randx.Seed, pops []PoP) *Router {
	r := &Router{seed: seed, pops: pops}
	for i, p := range pops {
		if p.Active {
			r.activeIdx = append(r.activeIdx, i)
		}
		if p.Active && p.CloudReachable {
			r.cloudIdx = append(r.cloudIdx, i)
		}
	}
	return r
}

// PoPs returns the catalog the router was built over.
func (r *Router) PoPs() []PoP { return r.pops }

// scratchPoPs sizes the stack arrays routing sorts candidates into. The
// catalog has 45 sites; a larger one spills to the heap and routes
// identically.
const scratchPoPs = 64

// nearest appends candidate indices to order sorted by (distance from c,
// catalog index), using dist as scratch for the distances. Insertion
// into the caller's stack arrays keeps routing allocation-free; the
// order is the same total order a comparison sort would produce.
func (r *Router) nearest(order []int, dist []float64, c geo.Coord, candidates []int) []int {
	for _, idx := range candidates {
		d := geo.DistanceKm(c, r.pops[idx].Coord)
		k := len(order)
		order, dist = append(order, idx), append(dist, d)
		for k > 0 && (dist[k-1] > d || dist[k-1] == d && order[k-1] > idx) {
			order[k], dist[k] = order[k-1], dist[k-1]
			k--
		}
		order[k], dist[k] = idx, d
	}
	return order
}

// popRankProbs is the probability a prefix routes to its k-th nearest
// active PoP: anycast routes most clients nearby, but BGP detours a
// persistent minority (§3.1.1 cites that anycast "does not always route
// clients to the nearest PoP").
var popRankProbs = []float64{0.72, 0.16, 0.07, 0.03, 0.02}

// PoPForClient returns the catalog index of the PoP that queries from
// client prefix p (located at c) reach. The choice is deterministic per
// prefix — BGP is stable on the timescale of a probing campaign — but not
// always the nearest site. Sites without cloud reachability are small
// deployments with limited anycast announcement: most prefixes skip past
// them even when nearby (appendix A.1 finds those 5 sites carry only 5%
// of Google Public DNS query volume).
func (r *Router) PoPForClient(p netx.Slash24, c geo.Coord) int {
	var ob, keptb [scratchPoPs]int
	var db [scratchPoPs]float64
	order := r.nearest(ob[:0], db[:0], c, r.activeIdx)
	// Hash keys "anycast/{small,client,detour}/<p>[/<pop>]", byte-built in
	// stack scratch: the bytes equal the former string concatenations
	// (pinned by TestRouteKeyBytesMatchConcat), so every route is unchanged.
	var keyb [64]byte
	key := append(keyb[:0], "anycast/small/"...)
	key = p.AppendTo(key)
	key = append(key, '/')
	base := len(key)
	// Thin out small sites deterministically per prefix.
	kept := keptb[:0]
	for _, idx := range order {
		pop := r.pops[idx]
		if pop.Active && !pop.CloudReachable &&
			r.seed.HashUnitB(append(key[:base], pop.Name...)) < 0.75 {
			continue
		}
		kept = append(kept, idx)
	}
	if len(kept) > 0 {
		order = kept
	}
	key = p.AppendTo(append(keyb[:0], "anycast/client/"...))
	u := r.seed.HashUnitB(key)
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
	// Long-tail detour: land somewhere in the nearest half dozen.
	n := len(order)
	if n > 6 {
		n = 6
	}
	key = p.AppendTo(append(keyb[:0], "anycast/detour/"...))
	return order[int(r.seed.Hash64B(key))%n]
}

// PoPForVantage returns the catalog index of the PoP a cloud vantage point
// at c reaches. Cloud networks have clean routes to nearby cloud-reachable
// sites, so this is simply the nearest candidate.
func (r *Router) PoPForVantage(c geo.Coord) int {
	var ob [scratchPoPs]int
	var db [scratchPoPs]float64
	order := r.nearest(ob[:0], db[:0], c, r.cloudIdx)
	if len(order) == 0 {
		return -1
	}
	return order[0]
}

// ExpectedLoad returns, for the given per-prefix weights, the total weight
// routed to each PoP index. It is used to derive each site's share of
// query traffic (appendix A.1's "95% of queries" check).
func (r *Router) ExpectedLoad(prefixes []netx.Slash24, coords []geo.Coord, weights []float64) map[int]float64 {
	load := make(map[int]float64)
	for i, p := range prefixes {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		load[r.PoPForClient(p, coords[i])] += w
	}
	return load
}

// MaxServiceRadiusKm is the cap used when a calibrated per-PoP radius is
// unavailable; the paper cites 5,524 km (Zurich's radius) as the maximum
// observed.
const MaxServiceRadiusKm = 5524.0
