package gpdns

import (
	"strconv"
	"time"

	"clientmap/internal/authdns"
	"clientmap/internal/domains"
	"clientmap/internal/netx"
	"clientmap/internal/traffic"
)

// LazyFill answers "would client-driven traffic have (name, scope) cached
// at PoP p in pool i at time t?" without simulating individual queries.
//
// For each (domain, scope prefix) it aggregates the Google-bound query
// rates of the scope's client /24s per PoP (a /24's queries always reach
// the PoP anycast assigns it), splits the rate evenly across the PoP's
// cache pools, and asks the traffic model's deterministic Poisson sampler
// for the most recent arrival within the record's TTL.
//
// Two memos back it. The (domain, scope) rate lines are owned here and
// dropped by Invalidate when churn moves the rates. Each /24's route
// is the traffic model's ClientPoP memo, which is shared with the roots
// and CDN generators and outlives Invalidate: churn never changes a
// route.
type LazyFill struct {
	model *traffic.Model
	// catalog indexes doms by name; the index is the domain's part of a
	// rate-line key.
	catalog map[string]int
	doms    []domains.Domain
	pools   int

	// rates is the (domain, scope) rate-line memo; its read path writes
	// no shared memory (see rateMemo).
	rates rateMemo
}

// scopeRates caches the per-PoP aggregated rates for one (domain, scope).
type scopeRates struct {
	key uint64 // the line's rateKey
	// perPoP holds the summed rate of each PoP the scope's clients reach,
	// in first-seen order; a scope's /24s reach one PoP or a few.
	perPoP []popRate
	lon    float64
	// diurn is the rate-weighted mean diurnality of the scope's clients.
	diurn float64
}

type popRate struct {
	pop  int
	rate float64
}

// rate returns the summed rate of the scope's clients that reach pop.
func (r *scopeRates) rate(pop int) float64 {
	for _, pr := range r.perPoP {
		if pr.pop == pop {
			return pr.rate
		}
	}
	return 0
}

// add adds rate to pop's sum. Each PoP's sum accumulates in the order
// the scope's /24s are visited; that order fixes the sum's low bits, and
// with them every lazily filled cache decision.
func (r *scopeRates) add(pop int, rate float64) {
	for i := range r.perPoP {
		if r.perPoP[i].pop == pop {
			r.perPoP[i].rate += rate
			return
		}
	}
	r.perPoP = append(r.perPoP, popRate{pop, rate})
}

// NewLazyFill builds the background-traffic model for the given per-PoP
// pool count (which must match the server's).
func NewLazyFill(model *traffic.Model, pools int) *LazyFill {
	doms := domains.Catalog()
	cat := make(map[string]int, len(doms))
	for i, d := range doms {
		cat[d.Name] = i
	}
	lf := &LazyFill{model: model, catalog: cat, doms: doms, pools: pools}
	lf.rates.reset()
	return lf
}

// Invalidate drops every memoized (domain, scope) rate line. The memo
// assumes the world's prefix populations and resolver shares are frozen
// — true for fixed-window campaigns, false once the streaming mode
// churns the world. The stream calls Invalidate after applying each
// hour's churn events, so both a continuous run and a resumed run
// recompute rates from the same post-churn world instead of one of them
// serving stale memo entries. The model's per-/24 route memo is kept:
// routes do not depend on anything churn changes.
func (lf *LazyFill) Invalidate() { lf.rates.reset() }

// ratesFor aggregates (and memoizes) the per-PoP client query rates for a
// (domain, scope) cache line. Rates are read from the live world on a
// memo miss; each client /24's PoP comes from the model's route memo,
// so a line rebuilt after Invalidate routes no prefix twice.
func (lf *LazyFill) ratesFor(di int, scope netx.Prefix) *scopeRates {
	key := rateKey(di, scope)
	if r := lf.rates.get(key); r != nil {
		return r
	}
	return lf.rates.getOrBuild(key, func() *scopeRates { return lf.buildRates(&lf.doms[di], scope) })
}

// buildRates computes the rate line of (d, scope) from the live world.
func (lf *LazyFill) buildRates(d *domains.Domain, scope netx.Prefix) *scopeRates {
	r := &scopeRates{}
	first := true
	var rateSum, diurnSum float64
	w := lf.model.W
	scope.Slash24s(func(p netx.Slash24) bool {
		i, ok := w.IndexOf(p)
		if !ok {
			return true
		}
		pi := &w.Prefixes[i]
		if !pi.HasClients() {
			return true
		}
		if first {
			r.lon = pi.Coord.Lon
			first = false
		}
		rate := lf.model.GoogleDNSRate(pi, *d)
		if rate <= 0 {
			return true
		}
		pop := lf.model.ClientPoP(i)
		r.add(pop, rate)
		rateSum += rate
		diurnSum += rate * float64(pi.Diurnality)
		return true
	})
	if rateSum > 0 {
		r.diurn = diurnSum / rateSum
	} else {
		r.diurn = 1
	}
	return r
}

// Lookup reports whether (name, a scope covering src) is cached at popIdx
// in the given pool at time now, and returns the synthetic entry if so.
//
// The cached entry's scope is the authoritative's *natural* scope for the
// block, occasionally flipped at fill time (authoritatives are not
// perfectly stable; appendix A.2 measures 90% exact agreement). Per RFC
// 7871 cache semantics a hit requires the cached scope to cover the query
// source, so a query at a stale or flipped scope can legitimately miss.
func (lf *LazyFill) Lookup(popIdx, poolIdx int, name string, src netx.Prefix, now time.Time) (entry, bool) {
	di, ok := lf.catalog[name]
	if !ok {
		return entry{}, false
	}
	d := &lf.doms[di]
	if !d.SupportsECS {
		// Non-ECS domains have one global cache line per PoP; for a
		// popular domain it is effectively always warm, with scope 0.
		exp := now.Add(d.TTL / 2)
		return entry{name: name, addr: lazyAddr(name), scope: netx.PrefixFrom(0, 0), expiry: exp}, true
	}
	natural := authdns.NaturalScope(lf.model.W.Cfg.Seed, *d, src)
	rates := lf.ratesFor(di, natural)
	rate := rates.rate(popIdx)
	if rate <= 0 {
		return entry{}, false
	}
	// Sampler key "gpdns/<name>/<natural>/<pop>/<pool>", byte-built in
	// stack scratch — these bytes must equal the fmt.Sprintf("%s/%s/%d/%d")
	// key this line used before the zero-alloc rewrite, or every lazily
	// filled cache line would move (pinned by TestLazyKeyBytesMatchSprintf).
	var kb [96]byte
	key := append(kb[:0], "gpdns/"...)
	key = append(key, d.Name...)
	key = append(key, '/')
	key = natural.AppendTo(key)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(popIdx), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(poolIdx), 10)
	arrival, ok := lf.model.LastEventBeforeDB(key, rate/float64(lf.pools), rates.lon, rates.diurn, now, d.TTL)
	if !ok {
		return entry{}, false
	}
	scope := lf.cachedScope(d, natural, popIdx, poolIdx, arrival)
	// A cached scope more specific than the query source does not cover
	// the source: cache miss (the prober will have probed the sibling
	// scopes separately).
	if scope.Bits() > src.Bits() {
		return entry{}, false
	}
	return entry{
		name:   name,
		addr:   lazyAddr(name),
		scope:  scope,
		expiry: arrival.Add(d.TTL),
	}, true
}

// cachedScope applies fill-time scope instability: mostly the natural
// scope, occasionally shifted a few bits — deterministic per cache fill.
func (lf *LazyFill) cachedScope(d *domains.Domain, natural netx.Prefix, popIdx, poolIdx int, arrival time.Time) netx.Prefix {
	seed := lf.model.W.Cfg.Seed
	fill := arrival.UnixNano()
	// Byte-identical to the former fmt.Sprintf("gpdns/flip/%s/%s/%d/%d/%d")
	// key; suffix draws reuse the buffer by truncating back to the base.
	var kb [128]byte
	key := append(kb[:0], "gpdns/flip/"...)
	key = append(key, d.Name...)
	key = append(key, '/')
	key = natural.AppendTo(key)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(popIdx), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, int64(poolIdx), 10)
	key = append(key, '/')
	key = strconv.AppendInt(key, fill, 10)
	base := len(key)
	u := seed.HashUnitB(key)
	if u >= d.Scope.FlipProb {
		return natural
	}
	// Magnitude distribution mirrors authdns: mostly ±1-2 bits.
	v := seed.HashUnitB(append(key[:base], "/mag"...))
	var delta int
	switch {
	case v < 0.5:
		delta = 1
	case v < 0.8:
		delta = 2
	case v < 0.93:
		delta = 3 + int(seed.Hash64B(append(key[:base], "/m2"...))%2)
	default:
		delta = 5 + int(seed.Hash64B(append(key[:base], "/m3"...))%4)
	}
	if seed.HashUnitB(append(key[:base], "/sign"...)) < 0.5 {
		delta = -delta
	}
	bits := natural.Bits() + delta
	if bits > 24 {
		bits = 24
	}
	if bits < d.Scope.MinBits-4 {
		bits = d.Scope.MinBits - 4
	}
	if bits < 16 {
		bits = 16 // see authdns: never coarser than /16
	}
	return netx.PrefixFrom(natural.Addr(), bits)
}

// lazyAddr is the synthetic answer address for lazily filled entries; it
// only needs to be stable per name.
func lazyAddr(name string) netx.Addr {
	var h uint32 = 2166136261
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return netx.AddrFrom4(198, 18, byte(h>>8), byte(h))
}
