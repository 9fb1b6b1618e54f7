// Package traffic is the client workload model: how often the clients of
// each /24 issue DNS queries for each popular domain, fetch from the
// Microsoft CDN, start browser sessions (emitting Chromium's DNS
// interception probes), and how that activity varies over the day.
//
// Rather than materializing billions of individual query events, the model
// exposes Poisson rates plus deterministic samplers. The Google Public DNS
// simulator asks "was a query for (domain, scope) cached at this PoP at
// time t?"; the root-server trace generator asks "how many Chromium probes
// did resolver R emit in this hour?". Both sample the same seeded hash
// space, so every dataset is a consistent view of one workload.
package traffic

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"clientmap/internal/anycast"
	"clientmap/internal/domains"
	"clientmap/internal/randx"
	"clientmap/internal/world"
)

// Tunables of the workload, exported for ablation experiments.
type Tunables struct {
	// DNSQueriesPerUserDay is the mean number of DNS queries per user per
	// day that actually reach the recursive resolver (past browser, stub
	// and OS caches) for the whole domain catalog. Calibrated so that
	// per-(scope, PoP) cache warmth matches the hit rates the paper's
	// campaign observed (instantaneous warmth well below 1 for all but
	// the busiest scopes).
	DNSQueriesPerUserDay float64
	// HTTPFetchesPerUserDay is the mean CDN request count per user per day
	// for the Microsoft CDN.
	HTTPFetchesPerUserDay float64
	// SessionsPerUserDay is the mean number of browser launches (or
	// network changes) per user per day; each Chromium session start emits
	// ChromiumProbes random-label queries.
	SessionsPerUserDay float64
	// ChromiumProbes is the number of random-label probes per session
	// start (Chromium issues three).
	ChromiumProbes int
	// GoogleRootSuppression is the fraction of Chromium random-label
	// queries Google Public DNS answers without consulting the roots
	// (aggressive NSEC-based negative caching, RFC 8198) — the reason
	// Google's AS carries only ~0.5%% of the DNS-logs signal despite
	// resolving ~30%% of client queries (appendix B.3).
	GoogleRootSuppression float64
}

// DefaultTunables returns the calibrated workload defaults.
func DefaultTunables() Tunables {
	return Tunables{
		DNSQueriesPerUserDay:  16,
		HTTPFetchesPerUserDay: 40,
		SessionsPerUserDay:    2.2,
		ChromiumProbes:        3,
		GoogleRootSuppression: 0.985,
	}
}

// Model is the workload over one world.
type Model struct {
	W       *world.World
	Router  *anycast.Router
	Tun     Tunables
	seed    randx.Seed
	catalog []domains.Domain
	weightN float64 // normalizer for domain query weights
	// routes memoizes ClientPoP per W.Prefixes index: 0 means not yet
	// routed, any other value is the PoP index plus one.
	routes []atomic.Int32
}

// NewModel builds the workload model for w.
func NewModel(w *world.World, router *anycast.Router, tun Tunables) *Model {
	m := &Model{
		W:       w,
		Router:  router,
		Tun:     tun,
		seed:    w.Cfg.Seed,
		catalog: domains.Catalog(),
		routes:  make([]atomic.Int32, len(w.Prefixes)),
	}
	m.weightN = domains.TotalQueryWeight()
	return m
}

// ClientPoP returns the catalog index of the PoP the clients of
// W.Prefixes[i] reach: Router.PoPForClient of the /24 and its
// coordinate, computed on first use and memoized. A route depends only
// on (seed, catalog, /24, coordinate), and churn changes none of these
// (Realloc keeps P and Coord; PoP windows act on the scheduler, not on
// routing), so the memo is never invalidated. Concurrent first calls
// may both route the prefix; they store the same value.
func (m *Model) ClientPoP(i int) int {
	if v := m.routes[i].Load(); v != 0 {
		return int(v - 1)
	}
	pi := &m.W.Prefixes[i]
	pop := m.Router.PoPForClient(pi.P, pi.Coord)
	m.routes[i].Store(int32(pop + 1))
	return pop
}

// Diurnal returns the activity multiplier at time t for a client at the
// given longitude: a day-night cycle peaking around 20:00 local time with
// a floor of 0.2, integrating to ~0.84 over a day.
func Diurnal(t time.Time, lon float64) float64 {
	localHour := float64(t.UTC().Hour()) + float64(t.UTC().Minute())/60 + lon/15
	phase := 2 * math.Pi * (localHour - 20) / 24
	return 0.2 + 0.8*(1+math.Cos(phase))/2*1.6
}

// DiurnalWeighted blends the day-night cycle with flat machine traffic:
// weight 1 follows Diurnal fully, weight 0 is constant. Bot-heavy hosting
// space has low weight — the temporal fingerprint §6 proposes for telling
// humans from machines.
func DiurnalWeighted(t time.Time, lon, weight float64) float64 {
	if weight <= 0 {
		return 0.84 // the cycle's daily mean, so totals stay comparable
	}
	if weight > 1 {
		weight = 1
	}
	return (1-weight)*0.84 + weight*Diurnal(t, lon)
}

// domainShare returns the fraction of DNS queries going to d.
func (m *Model) domainShare(d domains.Domain) float64 {
	return d.QueryWeight / m.weightN
}

// affinity is the popularity multiplier for (prefix, domain): real
// networks do not consume domains uniformly. It combines two heavy-tailed
// deterministic components:
//
//   - a per-(AS, domain) factor — whole networks and their user bases
//     favor different services (the paper names "popularity of the domains
//     we probe" as a coverage factor, and Wikipedia's footprint differs
//     sharply by region); and
//   - a per-(prefix, domain) factor — variation within an AS, which gives
//     each probe domain a partly distinct footprint (Table 5).
//
// Each is a log-normal-ish multiplier from an Irwin-Hall normal of stable
// hashes.
func (m *Model) affinity(pi *world.PrefixInfo, d domains.Domain) float64 {
	v := d.AffinityVar
	if v == 0 {
		v = 1
	}
	as := m.W.ASes[pi.ASIdx]
	// Both Irwin-Hall keys are byte-built in stack scratch, identical to
	// the former fmt.Sprintf("traffic/asaffinity/%d/%s", ...) and
	// "traffic/affinity/"+prefix+"/"+name concatenations: affinity runs
	// per (/24, domain) while the lazy-fill memo warms up, which made the
	// nine string allocations here the dominant cost of a campaign's
	// first probe pass.
	var kb [96]byte
	k := append(kb[:0], "traffic/asaffinity/"...)
	k = strconv.AppendInt(k, int64(as.ASN), 10)
	k = append(k, '/')
	k = append(k, d.Name...)
	base := len(k)
	zAS := (m.seed.HashUnitB(append(k[:base], "/1"...)) + m.seed.HashUnitB(append(k[:base], "/2"...)) +
		m.seed.HashUnitB(append(k[:base], "/3"...)) + m.seed.HashUnitB(append(k[:base], "/4"...)) - 2.0) * math.Sqrt(3)
	k = append(kb[:0], "traffic/affinity/"...)
	k = pi.P.AppendTo(k)
	k = append(k, '/')
	k = append(k, d.Name...)
	base = len(k)
	zP := (m.seed.HashUnitB(append(k[:base], "/1"...)) + m.seed.HashUnitB(append(k[:base], "/2"...)) +
		m.seed.HashUnitB(append(k[:base], "/3"...)) + m.seed.HashUnitB(append(k[:base], "/4"...)) - 2.0) * math.Sqrt(3)
	// The -v²·1.25 term centers the heavy-tailed multiplier near mean 1;
	// the cap keeps one lucky hash from making an empty network look busy.
	mult := math.Exp(v * (1.3*zAS + 0.9*zP - 1.25*v))
	if mult > 30 {
		mult = 30
	}
	return mult
}

// GoogleDNSRate returns the mean rate (queries/second, before the diurnal
// factor) at which clients of prefix pi query Google Public DNS for domain
// d. Queries from a /24 all reach the PoP the router assigns it.
func (m *Model) GoogleDNSRate(pi *world.PrefixInfo, d domains.Domain) float64 {
	if !pi.HasClients() {
		return 0
	}
	as := m.W.ASes[pi.ASIdx]
	perDay := float64(pi.Users) * float64(pi.Activity) * m.affinity(pi, d) *
		m.Tun.DNSQueriesPerUserDay * m.domainShare(d) * as.GoogleDNSShare
	return perDay / 86400
}

// ResolverDNSRate is the equivalent rate toward the prefix's ISP resolver
// (the non-Google share).
func (m *Model) ResolverDNSRate(pi *world.PrefixInfo, d domains.Domain) float64 {
	if !pi.HasClients() || pi.ResolverIdx < 0 {
		return 0
	}
	as := m.W.ASes[pi.ASIdx]
	perDay := float64(pi.Users) * float64(pi.Activity) * m.affinity(pi, d) *
		m.Tun.DNSQueriesPerUserDay * m.domainShare(d) * (1 - as.GoogleDNSShare)
	return perDay / 86400
}

// HTTPRate returns the prefix's mean CDN fetch rate (requests/second,
// before the diurnal factor). Hosting prefixes fetch too — CDNs see bots
// and machine-to-machine traffic, which the paper calls out.
func (m *Model) HTTPRate(pi *world.PrefixInfo) float64 {
	if !pi.HasClients() {
		return 0
	}
	return float64(pi.Users) * float64(pi.Activity) * m.Tun.HTTPFetchesPerUserDay / 86400
}

// SessionRate returns browser session starts per second from the prefix.
func (m *Model) SessionRate(pi *world.PrefixInfo) float64 {
	if !pi.HasClients() {
		return 0
	}
	return float64(pi.Users) * float64(pi.Activity) * m.Tun.SessionsPerUserDay / 86400
}

// ChromiumProbeRate returns random-label probes per second emitted by the
// prefix's clients (before resolver fan-out): session starts × Chromium
// browser share × probes per start.
func (m *Model) ChromiumProbeRate(pi *world.PrefixInfo) float64 {
	return m.SessionRate(pi) * m.W.Cfg.Params.ChromiumShare * float64(m.Tun.ChromiumProbes)
}

// ResolverRootRates returns, per World.Resolvers index, the aggregate
// Chromium interception-probe rate (probes/second, pre-diurnal) that
// reaches the root servers through that resolver: each client prefix's
// Chromium rate times its non-Google query share, and zero for resolvers
// sitting behind forwarders (invisible at the roots). This is the
// per-source rate the DITL trace generator emits Chromium records at,
// and the signal the streaming mode's DNS-logs channel watches decay
// when the world's Chromium share churns to zero. Rates are recomputed
// from the live world on every call, so a churned world is reflected
// immediately.
func (m *Model) ResolverRootRates() []float64 {
	rates := make([]float64, len(m.W.Resolvers))
	for i := range m.W.Prefixes {
		pi := &m.W.Prefixes[i]
		if !pi.HasClients() || pi.ResolverIdx < 0 {
			continue
		}
		as := m.W.ASes[pi.ASIdx]
		rates[pi.ResolverIdx] += m.ChromiumProbeRate(pi) * (1 - as.GoogleDNSShare)
	}
	for i := range rates {
		if !m.W.Resolvers[i].ForwardsToRoots {
			rates[i] = 0
		}
	}
	return rates
}

// CountIn returns a deterministic Poisson sample of event counts in the
// window [start, start+dur) for a process with the given mean rate and
// diurnal modulation at longitude lon. The sample depends only on
// (seed, key, window), so any consumer asking about the same window gets
// the same answer.
func (m *Model) CountIn(key string, rate float64, lon float64, start time.Time, dur time.Duration) int {
	return m.CountInD(key, rate, lon, 1, start, dur)
}

// CountInD is CountIn with an explicit diurnality weight (see
// DiurnalWeighted).
func (m *Model) CountInD(key string, rate, lon, diurn float64, start time.Time, dur time.Duration) int {
	if rate <= 0 || dur <= 0 {
		return 0
	}
	mid := start.Add(dur / 2)
	mean := rate * dur.Seconds() * DiurnalWeighted(mid, lon, diurn)
	rng := m.seed.New(fmt.Sprintf("traffic/%s/%d", key, start.Unix()))
	return rng.Poisson(mean)
}

// CountInDR is CountInD with a byte-slice key and a caller-owned stream
// that is reseeded instead of constructed, so per-bucket sampling loops
// (the roots trace generator and the CDN collection draw hundreds of
// thousands of samples) format no key and allocate nothing; a reseed
// costs O(1) (see randx.Seed.Reseed). The sampled value is bit-identical
// to CountInD with the equal string key.
func (m *Model) CountInDR(r *randx.Stream, key []byte, rate, lon, diurn float64, start time.Time, dur time.Duration) int {
	if rate <= 0 || dur <= 0 {
		return 0
	}
	mid := start.Add(dur / 2)
	mean := rate * dur.Seconds() * DiurnalWeighted(mid, lon, diurn)
	var kb [128]byte
	k := append(kb[:0], "traffic/"...)
	k = append(k, key...)
	k = append(k, '/')
	k = strconv.AppendInt(k, start.Unix(), 10)
	m.seed.ReseedB(r, k)
	return r.Poisson(mean)
}

// LastEventBefore reports whether a Poisson process with the given mean
// rate (diurnally modulated at longitude lon) produced an event within
// [t-window, t], and if so when the most recent one was. The computation
// quantizes time into window-sized buckets and is deterministic in
// (seed, key, bucket), which lets the Google Public DNS simulator answer
// "is this record cached right now?" lazily in O(1) — the core trick that
// makes whole-space probing campaigns simulable.
func (m *Model) LastEventBefore(key string, rate float64, lon float64, t time.Time, window time.Duration) (time.Time, bool) {
	return m.LastEventBeforeD(key, rate, lon, 1, t, window)
}

// LastEventBeforeD is LastEventBefore with an explicit diurnality weight.
func (m *Model) LastEventBeforeD(key string, rate, lon, diurn float64, t time.Time, window time.Duration) (time.Time, bool) {
	var kb [128]byte
	return m.LastEventBeforeDB(append(kb[:0], key...), rate, lon, diurn, t, window)
}

// LastEventBeforeDB is LastEventBeforeD with a byte-slice key, for callers
// that assemble keys in reused buffers (the lazy cache-fill model calls
// this once per probe). Results are bit-identical to the string variant.
func (m *Model) LastEventBeforeDB(key []byte, rate, lon, diurn float64, t time.Time, window time.Duration) (time.Time, bool) {
	if rate <= 0 || window <= 0 {
		return time.Time{}, false
	}
	// Hash keys "traffic/ev/<key>/<bucket>" (did an event occur) and
	// "traffic/evt/<key>/<bucket>" (when), assembled in stack scratch.
	var evb, evtb [160]byte
	kEv := append(evb[:0], "traffic/ev/"...)
	kEv = append(kEv, key...)
	kEv = append(kEv, '/')
	evLen := len(kEv)
	kEvt := append(evtb[:0], "traffic/evt/"...)
	kEvt = append(kEvt, key...)
	kEvt = append(kEvt, '/')
	evtLen := len(kEvt)
	bucket := t.UnixNano() / int64(window)
	// Check the current bucket and the previous one: an event in either
	// can still be within the lookback window.
	for _, b := range [2]int64{bucket, bucket - 1} {
		bStart := time.Unix(0, b*int64(window))
		mean := rate * window.Seconds() * DiurnalWeighted(bStart.Add(window/2), lon, diurn)
		u := m.seed.HashUnitB(strconv.AppendInt(kEv[:evLen], b, 10))
		if u >= 1-math.Exp(-mean) {
			continue // no event in this bucket
		}
		// Event time: uniform within the bucket, deterministic.
		frac := m.seed.HashUnitB(strconv.AppendInt(kEvt[:evtLen], b, 10))
		evt := bStart.Add(time.Duration(frac * float64(window)))
		if b == bucket && evt.After(t) {
			// The bucket's event hasn't happened yet; fall through to the
			// previous bucket.
			continue
		}
		if !evt.Before(t.Add(-window)) {
			return evt, true
		}
	}
	return time.Time{}, false
}
