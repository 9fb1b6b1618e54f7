package cacheprobe

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clientmap/internal/clockx"
	"clientmap/internal/dnswire"
	"clientmap/internal/geo"
	"clientmap/internal/metrics"
	"clientmap/internal/netx"
	"clientmap/internal/par"
	"clientmap/internal/randx"
)

// Prober executes campaigns.
//
// Concurrency model: stages fan out across PoPs (one worker per PoP) and,
// within a PoP, across probe tasks (a pool of Config.Workers goroutines).
// Results are bit-identical for any worker count because nothing a worker
// does depends on what other workers have already done:
//
//   - every probe's simulated timestamp is computed from its (pass, task)
//     position up front and carried on the context (clockx.WithTime), so
//     workers never touch the shared Sim clock;
//   - DNS transaction ids are content-derived hashes, not a shared counter;
//   - workers write results only into their own index slot of a
//     pre-allocated slice, and the slots are merged into the Campaign
//     sequentially in the same (pass, sorted PoP, task index) order the
//     sequential implementation used.
type Prober struct {
	cfg      Config
	vantages []Vantage
	auth     Authoritative
	// alts maps each discovered PoP to the vantages beyond the first
	// whose anycast route reaches it — the hedge and failover partners
	// that recover the PoP's shared caches when its primary degrades.
	alts map[string][]*Vantage
	// hedgeAfter caches the health policy's hedge threshold (0 = off).
	hedgeAfter time.Duration
	// m holds the resolved metric handles (all discarding when
	// Config.Metrics is nil), so hot loops never touch the registry.
	m proberMetrics
	// execMu serializes shard execution and gathering within this
	// process: the shard ledgers are registry snapshot deltas, and two
	// overlapping snapshot windows would absorb each other's increments.
	// Shards in different processes have separate registries and run
	// fully in parallel.
	execMu sync.Mutex
}

// NewProber builds a prober from vantage points and the authoritative
// access used by the pre-scan.
func NewProber(cfg Config, vantages []Vantage, auth Authoritative) *Prober {
	cfg = cfg.withDefaults()
	p := &Prober{cfg: cfg, vantages: vantages, auth: auth, m: newProberMetrics(cfg.Metrics)}
	if cfg.Health != nil && cfg.Health.Config().Hedging() {
		p.hedgeAfter = cfg.Health.Config().HedgeAfter
	}
	return p
}

// workers is the intra-PoP pool size (Config.Workers, 0 = GOMAXPROCS).
func (p *Prober) workers() int { return par.Workers(p.cfg.Workers) }

// popFanout is the PoP-level worker count: one worker per PoP, except in
// fully sequential mode (Workers=1), the reference behaviour every other
// worker count must reproduce bit-for-bit.
func (p *Prober) popFanout(pops int) int {
	if p.workers() <= 1 {
		return 1
	}
	return pops
}

// txidBase derives the base DNS transaction id for a probe from its
// content key; attempt a sends with txidAt(base, a). A shared counter
// would hand out ids in arrival order — racy under concurrency, and
// enough to change which cache pool a query reaches. Hashing the content
// keeps ids deterministic for any worker count; consecutive attempt
// numbers keep a redundancy burst spread across a site's pools, which is
// the reason redundant copies exist (§3.1.1).
//
// The hash domain "cacheprobe/txid/<key>" is folded into a randx.Mid and
// must hash exactly the former string concatenation — the ids select
// cache pools, so any drift would move every probe's pool assignment.
func (p *Prober) txidBase(key []byte) uint16 {
	return uint16(p.txidMid(key).Sum64())
}

// txidMid is the txid hash's state after "cacheprobe/txid/<prefix>":
// continuing it with the rest of a key gives txidBase of the whole key.
// A pass hashes its constant "probe/<pass>/<pop>/" prefix once per chunk.
func (p *Prober) txidMid(prefix []byte) randx.Mid {
	return p.cfg.Seed.Mid().String("cacheprobe/txid/").Bytes(prefix)
}

// txidAt offsets the base id by the redundancy attempt, avoiding the
// reserved id 0. The base hash is computed once per task: every attempt
// of a task hashes the same content key.
func txidAt(base uint16, attempt int) uint16 {
	id := base + uint16(attempt)
	if id == 0 {
		id = 1
	}
	return id
}

// stageFaults snapshots the shared fault-injector counters and returns a
// closure that folds the delta — the faults injected during this stage —
// into the campaign's ledger. The campaign is the checkpointed artifact,
// so a resumed run reports the same fault counts as an uninterrupted one
// even though the in-process injector counters reset on restart.
func (p *Prober) stageFaults(camp *Campaign) func() {
	before := p.cfg.FaultCounters.Snapshot()
	return func() {
		camp.Faults.addInjected(p.cfg.FaultCounters.Snapshot().Sub(before))
	}
}

// scheduleCtx stamps ctx with the probe's scheduled time in simulation.
// Live probing (real clock) keeps genuine arrival times instead.
func (p *Prober) scheduleCtx(ctx context.Context, at time.Time) context.Context {
	if _, isSim := p.cfg.Clock.(*clockx.Sim); isSim {
		return clockx.WithTime(ctx, at)
	}
	return ctx
}

// snoop sends one non-recursive ECS probe on the caller's reused scratch
// query q and reports (hit, response scope). Timeouts and errors count as
// misses, as in live probing — but with a retry policy configured, each
// failed try is retried (within the task's budget allowance in acct)
// before the miss is accepted. key is the probe's content key plus
// redundancy attempt: the hash domain for backoff jitter and per-try
// fault decisions. The response is a pooled message and snoop is its
// final consumer: it extracts the verdict and releases it.
func (p *Prober) snoop(ctx context.Context, v *Vantage, q *dnswire.Message, id uint16, domain string, scope netx.Prefix, key []byte, acct *retryAccount) (bool, netx.Prefix) {
	q.SetQuery(id, domain, dnswire.TypeA).WithECS(scope)
	q.RecursionDesired = false
	resp, err := p.exchange(ctx, v.Exchanger, v.Server, q, key, acct)
	if err != nil || resp == nil {
		return false, netx.Prefix{}
	}
	// A return scope of 0 means the entry covers the whole address space;
	// it says nothing about this prefix (§3.1.1).
	hit := len(resp.Answers) > 0 &&
		resp.EDNS != nil && resp.EDNS.ECS != nil && resp.EDNS.ECS.ScopePrefixLen != 0
	var out netx.Prefix
	if hit {
		out = netx.PrefixFrom(scope.Addr(), int(resp.EDNS.ECS.ScopePrefixLen))
	}
	dnswire.ReleaseMessage(resp)
	return hit, out
}

// DiscoverPoPs maps each vantage to the PoP its anycast route reaches and
// keeps one vantage per PoP (stage 1). The stage is a handful of queries,
// one per vantage, and runs sequentially.
func (p *Prober) DiscoverPoPs(ctx context.Context) (map[string]*Vantage, error) {
	out := make(map[string]*Vantage)
	p.alts = make(map[string][]*Vantage)
	q := dnswire.AcquireMessage()
	defer dnswire.ReleaseMessage(q)
	var kb [64]byte
	for i := range p.vantages {
		v := &p.vantages[i]
		key := append(kb[:0], "discover/"...)
		key = append(key, v.Name...)
		q.SetQuery(txidAt(p.txidBase(key), 0), "o-o.myaddr.l.google.com", dnswire.TypeTXT)
		// Discovery is one query per vantage: a single drop would lose a
		// whole PoP for the campaign, so the retry policy applies here
		// too (unbudgeted — the stage is a handful of queries).
		resp, err := p.exchange(ctx, v.Exchanger, v.Server, q, key, nil)
		if err != nil || resp == nil || len(resp.Answers) == 0 {
			dnswire.ReleaseMessage(resp)
			continue // vantage cannot reach the service
		}
		var pop string
		if txt, ok := resp.Answers[0].Data.(dnswire.TXT); ok && len(txt.Strings) > 0 {
			pop = txt.Strings[0]
		}
		dnswire.ReleaseMessage(resp)
		if pop == "" {
			continue
		}
		if _, exists := out[pop]; !exists {
			out[pop] = v
		} else {
			// Further vantages routed to an already-claimed PoP become its
			// alternates, in vantage order: same caches, different path.
			p.alts[pop] = append(p.alts[pop], v)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cacheprobe: no vantage reached any PoP")
	}
	p.cfg.Trace.Emit(metrics.Span{
		Time: p.cfg.Clock.Now(), Stage: "pop-discovery", Event: "discovered",
		Fields: map[string]int64{"vantages": int64(len(p.vantages)), "pops": int64(len(out))},
	})
	return out, nil
}

// PreScan queries the authoritative resolvers across the universe to learn
// response scopes, skipping ahead by each returned scope (stage 2,
// validated in appendix A.2). It returns per-domain sorted scope lists.
//
// The scan fans out over (domain, universe block) spans: the skip-ahead
// walk is sequential within a block by nature (each response determines
// the next query), but blocks and domains are independent of each other.
func (p *Prober) PreScan(ctx context.Context, camp *Campaign) error {
	type span struct {
		domain string
		block  netx.Prefix
	}
	var spans []span
	for _, d := range p.cfg.Domains {
		if !d.SupportsECS {
			continue
		}
		for _, block := range p.cfg.Universe {
			spans = append(spans, span{domain: d.Name, block: block})
		}
	}

	fin := p.stageFaults(camp)
	defer fin()
	finM := p.stageMetrics(camp)
	defer finM()
	p.healthSync(camp, p.cfg.Clock.Now())
	prescanDelay := p.m.reg.Histogram("cacheprobe/prescan/retry_delay_ms", retryDelayBounds)
	results := make([][]netx.Prefix, len(spans))
	accounts := make([]retryAccount, len(spans))
	var queries atomic.Int64
	par.ForEach(len(spans), p.workers(), func(i int) {
		sp := spans[i]
		// The pre-scan has no redundancy: a dropped response silently
		// loses its scope from the campaign's coverage. Retries apply
		// (unbudgeted — the per-PoP budget governs the probing stages;
		// this path talks to the authoritative resolvers).
		acct := &accounts[i]
		acct.remaining = -1
		acct.delays = prescanDelay
		// One scratch query per span, and a key buffer pre-filled with the
		// span's constant "prescan/<domain>/" prefix; the walk re-stamps
		// both per /24. Key bytes are identical to the former
		// fmt.Sprintf("prescan/%s/%s", domain, s24).
		q := dnswire.AcquireMessage()
		defer dnswire.ReleaseMessage(q)
		var kb [96]byte
		pfx := append(kb[:0], "prescan/"...)
		pfx = append(pfx, sp.domain...)
		pfx = append(pfx, '/')
		base := len(pfx)
		var scopes []netx.Prefix
		sent := 0
		cur := uint32(sp.block.FirstSlash24())
		end := cur + uint32(sp.block.NumSlash24s())
		for cur < end {
			s24 := netx.Slash24(cur)
			key := s24.AppendTo(pfx[:base])
			q.SetQuery(txidAt(p.txidBase(key), 0), sp.domain, dnswire.TypeA).WithECS(s24.Prefix())
			resp, err := p.exchange(ctx, p.auth.Exchanger, p.auth.Server, q, key, acct)
			sent++
			if err != nil || resp == nil || resp.EDNS == nil || resp.EDNS.ECS == nil {
				dnswire.ReleaseMessage(resp)
				cur++
				continue
			}
			bits := int(resp.EDNS.ECS.ScopePrefixLen)
			dnswire.ReleaseMessage(resp)
			if bits == 0 || bits > 24 {
				bits = 24
			}
			scope := netx.PrefixFrom(s24.Addr(), bits)
			scopes = append(scopes, scope)
			// Skip every /24 the returned scope covers.
			cur = uint32(scope.FirstSlash24()) + uint32(scope.NumSlash24s())
		}
		results[i] = scopes
		queries.Add(int64(sent + acct.spent))
	})
	for i := range accounts {
		camp.Faults.addRetries(&accounts[i])
		p.m.countRetries(&accounts[i])
	}

	// Merge the spans back per domain, in span order, then sort.
	si := 0
	for _, d := range p.cfg.Domains {
		if !d.SupportsECS {
			continue
		}
		var scopes []netx.Prefix
		for range p.cfg.Universe {
			scopes = append(scopes, results[si]...)
			si++
		}
		sort.Slice(scopes, func(i, j int) bool {
			if scopes[i].Addr() != scopes[j].Addr() {
				return scopes[i].Addr() < scopes[j].Addr()
			}
			return scopes[i].Bits() < scopes[j].Bits()
		})
		camp.ScopesByDomain[d.Name] = scopes
	}
	camp.PreScanQueries += int(queries.Load())
	p.m.prescanQueries.Add(queries.Load())
	scopeCount := int64(0)
	for _, scopes := range camp.ScopesByDomain {
		scopeCount += int64(len(scopes))
	}
	p.m.prescanScopes.Add(scopeCount)
	p.healthExport(camp)
	p.cfg.Trace.Emit(metrics.Span{
		Time: p.cfg.Clock.Now(), Stage: "scope-prescan", Event: "scanned",
		Fields: map[string]int64{"queries": queries.Load(), "scopes": scopeCount},
	})
	return nil
}

// calibrationSample deterministically picks geolocated prefixes with
// error radius under the configured bound.
func (p *Prober) calibrationSample() []netx.Slash24 {
	var eligible []netx.Slash24
	p.cfg.GeoDB.Range(func(s netx.Slash24, loc geo.Location) bool {
		if loc.ErrorKm < p.cfg.CalibrationMaxErrKm {
			eligible = append(eligible, s)
		}
		return true
	})
	if len(eligible) <= p.cfg.CalibrationSamples {
		return eligible
	}
	// Deterministic thinning. The hash key is byte-built, identical to
	// the former "cacheprobe/calib/" + s.String() concatenation.
	keep := float64(p.cfg.CalibrationSamples) / float64(len(eligible))
	out := eligible[:0]
	var kb [48]byte
	pfx := append(kb[:0], "cacheprobe/calib/"...)
	base := len(pfx)
	for _, s := range eligible {
		if p.cfg.Seed.HashUnitB(s.AppendTo(pfx[:base])) < keep {
			out = append(out, s)
		}
	}
	return out
}

// Calibrate probes the sample at every PoP with the non-Microsoft probe
// domains and fits each PoP's service radius at the configured quantile
// (stage 3, Figure 2). PoPs calibrate concurrently, each walking its
// sample with the intra-PoP worker pool; every calibration probe is
// scheduled at the campaign start time.
func (p *Prober) Calibrate(ctx context.Context, pops map[string]*Vantage, camp *Campaign) {
	sample := p.calibrationSample()
	popNames := sortedPoPs(pops)
	now := p.cfg.Clock.Now()
	sctx := p.scheduleCtx(ctx, now)
	fin := p.stageFaults(camp)
	defer fin()
	finM := p.stageMetrics(camp)
	defer finM()
	p.healthSync(camp, now)

	type calResult struct {
		hit    bool
		dist   float64
		probes int
		retry  retryAccount
	}
	cals := make([]*PoPCalibration, len(popNames))
	retries := make([]retryAccount, len(popNames))
	popProbes := make([]int64, len(popNames))
	var probes atomic.Int64
	par.ForEach(len(popNames), p.popFanout(len(popNames)), func(pi int) {
		pop := popNames[pi]
		v := pops[pop]
		cal := &PoPCalibration{PoP: pop, Vantage: v.Name}
		delays := p.m.popDelay(pop)
		allowScope := "calib/" + pop
		res := make([]calResult, len(sample))
		par.ForEach(len(sample), p.workers(), func(si int) {
			s := sample[si]
			loc, ok := p.cfg.GeoDB.Lookup(s)
			if !ok {
				return
			}
			var r calResult
			r.retry.remaining = p.retryAllowance(allowScope, si, len(sample))
			r.retry.delays = delays
			// Content keys are byte-built in stack scratch, identical to
			// the former fmt.Sprintf("calib/%s/%s/%s", pop, s, d.Name)
			// with "/<attempt>" appended for the per-try hash domain.
			q := dnswire.AcquireMessage()
			defer dnswire.ReleaseMessage(q)
			var kb [128]byte
			key := append(kb[:0], "calib/"...)
			key = append(key, pop...)
			key = append(key, '/')
			key = s.AppendTo(key)
			key = append(key, '/')
			sBase := len(key)
			hit := false
			for _, d := range p.cfg.Domains {
				if d.Microsoft {
					continue // calibration uses the Alexa picks only
				}
				key = append(key[:sBase], d.Name...)
				kLen := len(key)
				base := p.txidBase(key)
				for a := 0; a < p.cfg.Redundancy && !hit; a++ {
					ak := strconv.AppendInt(append(key[:kLen], '/'), int64(a), 10)
					hit, _ = p.snoop(sctx, v, q, txidAt(base, a), d.Name, s.Prefix(), ak, &r.retry)
					r.probes++
				}
				if hit {
					break
				}
			}
			if hit {
				r.hit, r.dist = true, geo.DistanceKm(v.Coord, loc.Coord)
			}
			res[si] = r
		})
		for _, r := range res {
			probes.Add(int64(r.probes + r.retry.spent))
			popProbes[pi] += int64(r.probes + r.retry.spent)
			retries[pi].add(&r.retry)
			if r.hit {
				cal.HitDistancesKm = append(cal.HitDistancesKm, r.dist)
			}
		}
		sort.Float64s(cal.HitDistancesKm)
		if len(cal.HitDistancesKm) == 0 {
			cal.RadiusKm = MaxServiceRadiusKm
		} else {
			idx := int(p.cfg.ServiceRadiusQuantile * float64(len(cal.HitDistancesKm)))
			if idx >= len(cal.HitDistancesKm) {
				idx = len(cal.HitDistancesKm) - 1
			}
			cal.RadiusKm = cal.HitDistancesKm[idx]
		}
		// The paper treats Zurich's 5,524 km as the maximum service
		// radius; clients served from another continent (e.g. regions
		// with no nearby PoP) sit beyond any radius.
		if cal.RadiusKm > MaxServiceRadiusKm {
			cal.RadiusKm = MaxServiceRadiusKm
		}
		cals[pi] = cal
	})
	for pi, pop := range popNames {
		cal := cals[pi]
		camp.PoPs[pop] = cal
		camp.Faults.addRetries(&retries[pi])
		p.m.countRetries(&retries[pi])
		hits := int64(len(cal.HitDistancesKm))
		p.m.calProbes.Add(popProbes[pi])
		p.m.calHits.Add(hits)
		p.m.popProbes(pop).Add(popProbes[pi])
		p.m.popHits(pop).Add(hits)
		p.cfg.Trace.Emit(metrics.Span{
			Time: now, Stage: "calibration", PoP: pop, Event: "calibrated",
			Fields: map[string]int64{
				"samples": int64(len(sample)), "probes": popProbes[pi],
				"hits": hits, "radius_km": int64(cal.RadiusKm),
			},
		})
	}
	camp.ProbesSent += int(probes.Load())
	p.healthExport(camp)
}

// MaxServiceRadiusKm caps service radii when calibration yields no hits
// (the paper's maximum observed radius, Zurich's 5,524 km).
const MaxServiceRadiusKm = 5524.0

// scopeAssigned reports whether any of the scope's /24s is possibly within
// the PoP's service radius per the geolocation database. Large scopes are
// sampled at up to 8 of their /24s.
func (p *Prober) scopeAssigned(scope netx.Prefix, popCoord geo.Coord, radiusKm float64) bool {
	n := scope.NumSlash24s()
	stride := 1
	if n > 8 {
		stride = n / 8
	}
	first := uint32(scope.FirstSlash24())
	for i := 0; i < n; i += stride {
		if loc, ok := p.cfg.GeoDB.Lookup(netx.Slash24(first + uint32(i))); ok {
			if loc.PossiblyWithin(popCoord, radiusKm) {
				return true
			}
		}
	}
	return false
}

// probeChunk is the batched-dispatch grain of the probe loop: workers
// claim this many consecutive tasks per synchronization point, and the
// per-chunk scratch (pooled query message, key buffers, time carrier)
// amortizes across the whole chunk.
const probeChunk = 256

// probeTask is one (domain, scope) probe in a PoP's assignment.
type probeTask struct {
	domain string
	scope  netx.Prefix
}

// Assignments is the stage-4 probe plan: per-PoP task lists derived from
// the pre-scan scopes and calibration radii. It is a pure function of the
// campaign state, so a resumed run rebuilds it rather than persisting it.
type Assignments struct {
	popNames []string
	tasks    [][]probeTask
	// coords are the PoP locations the assignment was computed with
	// (catalog coordinates, vantage fallback) — reused by the failover
	// planner so in-radius checks match the original assignment's.
	coords map[string]geo.Coord
}

// coord returns the PoP location assignment used, falling back to the
// primary vantage's location exactly as BuildAssignments does.
func (a *Assignments) coord(pop string, pops map[string]*Vantage) geo.Coord {
	if c, ok := a.coords[pop]; ok {
		return c
	}
	return pops[pop].Coord
}

// BuildAssignments computes every PoP's probe assignment (the scopes
// MaxMind places possibly within its service radius, per domain) and
// records the per-PoP assignment sizes on the campaign. PoP coordinates
// come from popCoords (discovered PoP name → location).
func (p *Prober) BuildAssignments(pops map[string]*Vantage, popCoords map[string]geo.Coord, camp *Campaign) *Assignments {
	popNames := sortedPoPs(pops)
	// Build per-PoP assignments concurrently across PoPs (pure reads of
	// the geo database and pre-scan output).
	assignments := make([][]probeTask, len(popNames))
	par.ForEach(len(popNames), p.popFanout(len(popNames)), func(pi int) {
		pop := popNames[pi]
		coord, ok := popCoords[pop]
		if !ok {
			coord = pops[pop].Coord // fall back to the vantage location
		}
		radius := MaxServiceRadiusKm
		if cal, ok := camp.PoPs[pop]; ok {
			radius = cal.RadiusKm
		}
		var tasks []probeTask
		for _, d := range p.cfg.Domains {
			for _, scope := range camp.ScopesByDomain[d.Name] {
				if p.scopeAssigned(scope, coord, radius) {
					tasks = append(tasks, probeTask{domain: d.Name, scope: scope})
				}
			}
		}
		assignments[pi] = tasks
	})
	for pi, pop := range popNames {
		if cal, ok := camp.PoPs[pop]; ok {
			cal.Assigned = len(assignments[pi])
		}
	}
	coords := make(map[string]geo.Coord, len(popNames))
	for _, pop := range popNames {
		if c, ok := popCoords[pop]; ok {
			coords[pop] = c
		}
	}
	return &Assignments{popNames: popNames, tasks: assignments, coords: coords}
}

// ProbePass runs one assignment loop (pass) of stage 4 and merges its
// results into the campaign — the pipeline's checkpoint boundary: the
// campaign state after pass k is a durable artifact, and a killed run
// resumes at pass k+1. start is the campaign start time (pass windows
// are computed from it, independent of the current clock reading, so a
// resumed process reproduces the original schedule exactly).
//
// The pass runs as a degenerate scatter/gather: one shard holding the
// whole assignment, executed and then gathered (see shard.go). The
// N-shard split produces byte-identical campaigns, so this path is both
// the reference behaviour and the common case.
func (p *Prober) ProbePass(ctx context.Context, pops map[string]*Vantage, asg *Assignments, pass int, start time.Time, camp *Campaign) {
	if _, err := p.ProbePassDelta(ctx, pops, asg, pass, start, camp); err != nil {
		// Unreachable: the single full-partition shard covers every task.
		panic(err)
	}
}

// ProbePassDelta is ProbePass returning the pass's incremental evidence
// — what the staged pipeline checkpoints instead of the cumulative
// campaign. camp is advanced by the delta before returning.
func (p *Prober) ProbePassDelta(ctx context.Context, pops map[string]*Vantage, asg *Assignments, pass int, start time.Time, camp *Campaign) (*PassDelta, error) {
	units := PartitionPass(asg, pass, 1)[0]
	sr := p.ProbeShard(ctx, pops, asg, pass, start, camp, units)
	return p.GatherPass(pops, asg, pass, start, camp, []*ShardResult{sr})
}

// FinishProbing places the simulated clock at the campaign end, for
// everything downstream that reads "time after the campaign". The
// sequential prober left the Sim clock where its last scheduled probe put
// it; the staged one never moves it mid-run. Real clocks are untouched.
func (p *Prober) FinishProbing(start time.Time) {
	if sim, ok := p.cfg.Clock.(*clockx.Sim); ok {
		sim.Set(start.Add(p.cfg.Duration))
	}
}

// Probe runs stage 4 end to end: every PoP probes its assigned scopes for
// every probe domain, with redundant copies, looping Passes times across
// Duration. It is BuildAssignments + ProbePass×Passes + FinishProbing in
// one call, for callers that do not need per-pass checkpoints.
func (p *Prober) Probe(ctx context.Context, pops map[string]*Vantage, popCoords map[string]geo.Coord, camp *Campaign) {
	start := p.cfg.Clock.Now()
	asg := p.BuildAssignments(pops, popCoords, camp)
	for pass := 0; pass < p.cfg.Passes; pass++ {
		p.ProbePass(ctx, pops, asg, pass, start, camp)
	}
	p.FinishProbing(start)
}

// sortedPoPs returns the PoP names in sorted order — the canonical
// iteration order every stage and merge uses.
func sortedPoPs(pops map[string]*Vantage) []string {
	names := make([]string, 0, len(pops))
	for name := range pops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Run executes all four stages and returns the campaign results.
// popCoords supplies PoP locations for assignment (from the public PoP
// catalog, as the paper does).
func (p *Prober) Run(ctx context.Context, popCoords map[string]geo.Coord) (*Campaign, error) {
	camp := NewCampaign()
	pops, err := p.DiscoverPoPs(ctx)
	if err != nil {
		return nil, err
	}
	if err := p.PreScan(ctx, camp); err != nil {
		return nil, err
	}
	p.Calibrate(ctx, pops, camp)
	p.Probe(ctx, pops, popCoords, camp)
	return camp, nil
}
